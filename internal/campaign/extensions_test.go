package campaign

import (
	"testing"
	"time"

	"unprotected/internal/cluster"
	"unprotected/internal/timebase"
)

func TestStressConfigKeepsSoC12Scanning(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	res := run(t, StressConfig(11))

	// SoC-12 nodes scan the whole year (no power-off outage).
	hours := make(map[cluster.NodeID]float64)
	for _, s := range res.Sessions {
		hours[s.Host] += s.Duration().Hours()
	}
	soc12 := cluster.NodeID{Blade: 20, SoC: 12}
	if hours[soc12] < 3000 {
		t.Fatalf("stressed SoC-12 scanned only %v h", hours[soc12])
	}

	// Thermally accelerated retention faults appear on the hot positions
	// (11..13) — far more than the paper campaign's ambient background.
	hot, cold := 0, 0
	for _, f := range res.Faults {
		switch {
		case f.Node.SoC >= 11 && f.Node.SoC <= 13:
			hot++
		case f.Node == (cluster.NodeID{Blade: 2, SoC: 4}) ||
			f.Node == (cluster.NodeID{Blade: 4, SoC: 5}) ||
			f.Node == (cluster.NodeID{Blade: 58, SoC: 2}):
			// the calibrated fault nodes; not part of this comparison
		default:
			cold++
		}
	}
	if hot < 50 {
		t.Fatalf("stress test produced only %d faults on hot positions", hot)
	}
	if hot < 3*cold {
		t.Fatalf("hot positions (%d) should dominate cold background (%d)", hot, cold)
	}

	// Hot-position faults carry high temperatures once telemetry exists.
	var hotTemps, over55 int
	for _, f := range res.Faults {
		if f.Node.SoC == 12 && f.HasTemp() {
			hotTemps++
			if f.TempC > 55 {
				over55++
			}
		}
	}
	if hotTemps > 0 && float64(over55)/float64(hotTemps) < 0.5 {
		t.Fatalf("only %d/%d SoC-12 faults above 55°C", over55, hotTemps)
	}
}

func TestSwapExperimentFaultFollowsComponent(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign")
	}
	swapAt := timebase.FromTime(time.Date(2015, time.October, 15, 0, 0, 0, 0, time.UTC))
	healthy := cluster.NodeID{Blade: 40, SoC: 6}
	res := run(t, SwapConfig(13, swapAt, healthy))

	controller := cluster.NodeID{Blade: 2, SoC: 4}
	var beforeOnA, afterOnA, beforeOnB, afterOnB int
	for _, f := range res.Faults {
		switch f.Node {
		case controller:
			if f.FirstAt < swapAt {
				beforeOnA++
			} else {
				afterOnA++
			}
		case healthy:
			if f.FirstAt < swapAt {
				beforeOnB++
			} else {
				afterOnB++
			}
		}
	}
	// The errors follow the component: node A degrades only before the
	// swap, node B only after.
	if beforeOnA < 1000 {
		t.Fatalf("controller node logged only %d faults before the swap", beforeOnA)
	}
	if afterOnB < 1000 {
		t.Fatalf("recipient node logged only %d faults after the swap", afterOnB)
	}
	if afterOnA > beforeOnA/100 {
		t.Fatalf("controller node still degrading after the swap: %d faults", afterOnA)
	}
	if beforeOnB > 5 {
		t.Fatalf("recipient node was not healthy before the swap: %d faults", beforeOnB)
	}
}
