package exp

import (
	"fmt"

	"dhisq/internal/resources"
)

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Name         string
	Est          resources.Estimate
	PaperLUTs    int
	PaperFFs     int
	PaperBRAM    float64
	MatchesPaper bool
}

// Table1Result is the full table.
type Table1Result struct {
	Rows     []Table1Row
	AllMatch bool
}

// Table1 evaluates the resource model against the published numbers.
func Table1() Table1Result {
	rows := []Table1Row{
		{Name: "Control Board", Est: resources.ControlBoard(), PaperLUTs: 4155, PaperFFs: 6392, PaperBRAM: 75},
		{Name: "Readout Board", Est: resources.ReadoutBoard(), PaperLUTs: 2435, PaperFFs: 3192, PaperBRAM: 45},
		{Name: "Event Queue (38bit x 1024)", Est: resources.EventQueue(38, 1024), PaperLUTs: 86, PaperFFs: 160, PaperBRAM: 1.5},
	}
	all := true
	for i := range rows {
		r := &rows[i]
		r.MatchesPaper = r.Est.LUTs == r.PaperLUTs && r.Est.FFs == r.PaperFFs &&
			r.Est.BRAMBlocks == r.PaperBRAM
		all = all && r.MatchesPaper
	}
	return Table1Result{Rows: rows, AllMatch: all}
}

var table1Cols = []column[Table1Row]{
	{"type", func(r Table1Row) string { return r.Name }},
	{"#LUTs (paper)", func(r Table1Row) string { return fmt.Sprintf("%d (%d)", r.Est.LUTs, r.PaperLUTs) }},
	{"#BRAM blocks (paper)", func(r Table1Row) string { return fmt.Sprintf("%.1f (%.1f)", r.Est.BRAMBlocks, r.PaperBRAM) }},
	{"#FF (paper)", func(r Table1Row) string { return fmt.Sprintf("%d (%d)", r.Est.FFs, r.PaperFFs) }},
	{"match", func(r Table1Row) string { return fmt.Sprint(r.MatchesPaper) }},
}

// table1Gates holds the resource model to the paper's Table 1.
//
//   - rows: all three of the table's rows are there.
//   - rows_match: every row's LUTs, FFs and BRAM blocks equal the
//     published ones.
func table1Gates(rows []Table1Row) []Gate {
	off := 0
	for _, r := range rows {
		if !r.MatchesPaper {
			off++
		}
	}
	return []Gate{
		NewGate("rows", float64(len(rows)), "==", 3),
		NewGate("rows_match", float64(off), "==", 0),
	}
}
