package core

import (
	"bytes"
	"sync"
	"testing"

	"unprotected/internal/extract"
	"unprotected/internal/logstore"
)

// TestStudyFigureReadsConcurrent: Analyze seals the figures, so reading
// one never mutates the Study and concurrent readers of one study need no
// coordination. Four goroutines read every exported figure accessor of
// one replayed study at once and render its full report, whose Fig 12
// and spatial concentration build the dataset's per-node index; under
// -race any write a read makes is a reported data race. Nothing reads a
// figure before the goroutines start, so the first read of each accessor
// and the index build are among the racing ones. Every goroutine must
// render the same report bytes. Fig 4's per-node counts include the
// stream's last group only if Analyze closed it.
func TestStudyFigureReadsConcurrent(t *testing.T) {
	sessions, faults, controller := replayFixture()
	dir := t.TempDir()
	if err := logstore.Export(sessions, faults, dir); err != nil {
		t.Fatal(err)
	}
	s := logStudy(t, dir, controller, 0)
	groups := extract.Groups(s.Dataset.Faults)
	want := extract.Simultaneity(groups)
	var perNode [7]float64
	for _, g := range groups {
		perNode[min(g.TotalBits(), 6)]++
	}

	var wg sync.WaitGroup
	reports := make([][]byte, 4)
	for i := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			s.FullReport(&buf, ReportOptions{Charts: true, Heatmaps: true})
			reports[i] = buf.Bytes()
			if h := s.Headline(); h.IndependentFaults != len(faults) {
				t.Errorf("headline counts %d faults, want %d", h.IndependentFaults, len(faults))
			}
			s.MultiBitStats()
			if got := s.SimultaneityStats(); got != want {
				t.Errorf("simultaneity stats %+v, want %+v", got, want)
			}
			if got := s.Figures.Simultaneity.Figure().PerNode; got != perNode {
				t.Errorf("Fig 4 per node %v, want %v", got, perNode)
			}
			s.HourOfDayFigure()
			s.RegimesFigure()
			s.ScenarioSummary("fixture")
		}()
	}
	wg.Wait()
	for i := range reports {
		if !bytes.Equal(reports[i], reports[0]) {
			t.Fatalf("reader %d rendered a different report", i)
		}
	}
}
