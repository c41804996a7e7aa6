package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"unprotected/internal/analysis"
	"unprotected/internal/render"
	"unprotected/internal/timebase"
)

// WriteCSVs writes one CSV file per figure and table into dir, for
// external plotting. The streamed figures come from Study.Figures, the
// accumulators the report reads, and Tables I and II carry the report's
// own row strings. Files:
//
//	fig1_hours.csv, fig2_tbh.csv, fig3_errors.csv   — node grids
//	fig4_simultaneity.csv                            — per-word vs per-node
//	fig5_fig6_hour_of_day.csv                        — hourly by bit class
//	fig7_fig8_temperature.csv                        — temperature by class
//	fig9_fig10_fig11_daily.csv                       — daily TBh + errors
//	fig12_top_nodes.csv                              — top-3 + rest daily
//	fig13_regimes.csv                                — regime per day
//	table1_multibit.csv, table2_quarantine.csv
func (s *Study) WriteCSVs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, headers []string, rows [][]string) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		return errors.Join(render.CSV(f, headers, rows), f.Close())
	}
	d, fig := s.Dataset, s.Figures

	// Figs 1-3: grids flattened to (blade, soc, value).
	gridRows := func(g *render.Grid) [][]string {
		var rows [][]string
		for i, rowVals := range g.Values {
			for j, v := range rowVals {
				rows = append(rows, []string{
					g.RowLabels[i], g.ColLabels[j], fmt.Sprintf("%.4f", v),
				})
			}
		}
		return rows
	}
	for _, item := range []struct {
		name string
		grid *render.Grid
	}{
		{"fig1_hours.csv", analysis.HoursHeatmap(fig.Headline, d.Topo)},
		{"fig2_tbh.csv", analysis.TBhHeatmap(fig.Headline, d.Topo)},
		{"fig3_errors.csv", analysis.ErrorsHeatmap(d)},
	} {
		if err := write(item.name, []string{"blade", "soc", "value"}, gridRows(item.grid)); err != nil {
			return err
		}
	}

	// Fig 4.
	fig4 := fig.Simultaneity.Figure()
	var f4rows [][]string
	for c := 1; c <= 6; c++ {
		f4rows = append(f4rows, []string{
			analysis.BitClassLabels[c],
			fmt.Sprint(fig4.PerWord[c]),
			fmt.Sprint(fig4.PerNode[c]),
		})
	}
	if err := write("fig4_simultaneity.csv", []string{"class", "per_word", "per_node"}, f4rows); err != nil {
		return err
	}

	// Figs 5-6.
	hod := s.HourOfDayFigure()
	var hourRows [][]string
	for hh := 0; hh < 24; hh++ {
		row := []string{fmt.Sprint(hh)}
		for c := 1; c <= 6; c++ {
			row = append(row, fmt.Sprint(hod.Counts[c][hh]))
		}
		hourRows = append(hourRows, row)
	}
	if err := write("fig5_fig6_hour_of_day.csv",
		[]string{"hour", "1bit", "2bit", "3bit", "4bit", "5bit", "6plus"}, hourRows); err != nil {
		return err
	}

	// Figs 7-8.
	temp := fig.Temperature
	var tempRows [][]string
	for i := range temp.Hists[1].Counts {
		row := []string{fmt.Sprintf("%.0f", temp.Hists[1].BinCenter(i))}
		for c := 1; c <= 6; c++ {
			row = append(row, fmt.Sprint(temp.Hists[c].Counts[i]))
		}
		tempRows = append(tempRows, row)
	}
	if err := write("fig7_fig8_temperature.csv",
		[]string{"temp_c", "1bit", "2bit", "3bit", "4bit", "5bit", "6plus"}, tempRows); err != nil {
		return err
	}

	// Figs 9-11.
	scanned, daily := fig.Daily.Scanned, fig.Daily.Errors
	var dayRows [][]string
	for day := range scanned {
		row := []string{fmt.Sprint(day), timebase.DayLabel(day), fmt.Sprintf("%.3f", scanned[day])}
		for c := 0; c <= 6; c++ {
			row = append(row, fmt.Sprint(daily[c][day]))
		}
		dayRows = append(dayRows, row)
	}
	if err := write("fig9_fig10_fig11_daily.csv",
		[]string{"day", "date", "tbh", "all", "1bit", "2bit", "3bit", "4bit", "5bit", "6plus"}, dayRows); err != nil {
		return err
	}

	// Fig 12.
	top, rest := analysis.TopNodes(d, 3)
	var topRows [][]string
	for day := 0; day < timebase.StudyDays; day++ {
		row := []string{fmt.Sprint(day), timebase.DayLabel(day)}
		for _, t := range top {
			row = append(row, fmt.Sprint(t.Daily[day]))
		}
		row = append(row, fmt.Sprint(rest.Daily[day]))
		topRows = append(topRows, row)
	}
	headers := []string{"day", "date"}
	for _, t := range top {
		headers = append(headers, t.Node.String())
	}
	headers = append(headers, "rest")
	if err := write("fig12_top_nodes.csv", headers, topRows); err != nil {
		return err
	}

	// Fig 13.
	reg := s.RegimesFigure()
	var regRows [][]string
	for day, degraded := range reg.Degraded {
		state := "normal"
		if degraded {
			state = "degraded"
		}
		regRows = append(regRows, []string{
			fmt.Sprint(day), timebase.DayLabel(day), state, fmt.Sprint(reg.ErrorsPerDay[day]),
		})
	}
	if err := write("fig13_regimes.csv", []string{"day", "date", "regime", "errors"}, regRows); err != nil {
		return err
	}

	// Tables I and II.
	if err := write("table1_multibit.csv",
		[]string{"bits", "expected", "corrupted", "occurrences", "consecutive"},
		analysis.RenderMultiBitTable(analysis.MultiBitTable(d)).Rows); err != nil {
		return err
	}
	return write("table2_quarantine.csv",
		[]string{"quarantine_days", "errors", "node_days", "mtbf_hours"}, s.tableII().Rows)
}
