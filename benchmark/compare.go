package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// contract is the part of BENCHMARK.json that --compare and the smoke
// test read.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readJSON(path string, into any) error {
	body, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// spread is the distance between the first and third quartile as a
// share of the median (quartiles as Python's statistics.quantiles(v,
// n=4) gives them); with fewer than four values, the whole range.
func spread(v []float64) float64 {
	s := sorted(v)
	if len(s) < 4 {
		return ratio(s[len(s)-1]-s[0], median(s))
	}
	quartile := func(i int) float64 {
		j, delta := i*(len(s)+1)/4, float64(i*(len(s)+1)%4)
		j = min(max(j, 1), len(s)-1)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), median(s))
}

// compareFiles holds document b against document a (the base), one row
// per workload and end-to-end metric, against the bounds the contract
// (BENCHMARK.json) fixes. A pair whose own spread exceeds the bound is unresolved, not
// unchanged. It fails when a metric regressed or an operation failed.
func compareFiles(pathA, pathB, contractPath string, w io.Writer) error {
	var a, b document
	var c contract
	for path, into := range map[string]any{pathA: &a, pathB: &b, contractPath: &c} {
		if err := readJSON(path, into); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tchange\tchange/base\tspread base\tspread change\tbound\tverdict")
	regressed := 0
	for _, wl := range c.Workloads {
		for _, m := range c.EndToEnd {
			va, vb := a.values(wl.Name, m.Name, 0), b.values(wl.Name, m.Name, 0)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t\tmissing\n", wl.Name, m.Name)
				regressed++
				continue
			}
			base, change := median(va), median(vb)
			worse := (change - base) / base
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "unchanged"
			switch {
			case max(spread(va), spread(vb)) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed++
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%.3f\t%.3f\t%.3f\t%.2f\t%s\n",
				wl.Name, m.Name, base, m.Unit, change, m.Unit, change/base, spread(va), spread(vb), m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	failed := 0
	for _, r := range append(a.Runs, b.Runs...) {
		failed += r.Result.Failed
	}
	fmt.Fprintf(w, "failed operations in both documents: %d\n", failed)
	if regressed > 0 || failed > 0 {
		return fmt.Errorf("%d metrics regressed or missing, %d operations failed", regressed, failed)
	}
	return nil
}
