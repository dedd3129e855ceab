package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// compareMain prints one row per (workload, end-to-end metric) of two
// result files and returns non-zero unless every row is ok.
//
//	ok          b's median is not worse than a's by more than the bound
//	regressed   it is
//	unresolved  the run-to-run spread on either side is wider than the bound
func compareMain(args []string) int {
	if len(args) != 2 {
		return fail("usage: compare <a.json> <b.json>")
	}
	a, err := readResults(args[0])
	if err != nil {
		return fail("%v", err)
	}
	b, err := readResults(args[1])
	if err != nil {
		return fail("%v", err)
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(w, "workload\tmetric\ta (median, n)\tb (median, n)\tb/a\tworse by\tspread a\tspread b\tbound\tverdict\n")
	bad, rows := 0, 0
	for _, sp := range specs {
		for _, d := range endToEnd {
			va, vb := a.values(sp.name, d.name), b.values(sp.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rows++
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case worse > d.bound:
				verdict = "regressed"
			case sa > d.bound || sb > d.bound:
				verdict = "unresolved"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(w, "%s\t%s\t%.5g %s (n=%d)\t%.5g %s (n=%d)\t%.3f of a\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				sp.name, d.name, ma, d.unit, len(va), mb, d.unit, len(vb), mb/ma, 100*worse, 100*sa, 100*sb, 100*d.bound, verdict)
		}
	}
	w.Flush()
	if rows == 0 {
		return fail("the two files share no (workload, end-to-end metric) pair")
	}
	if bad > 0 {
		return fail("%d of %d rows are not ok", bad, rows)
	}
	return 0
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one end-to-end metric over a workload's untraced runs.
func (f *resultFile) values(workload, name string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == 0 {
			v = append(v, m.Value)
		}
	}
	return v
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles of Python's statistics.quantiles(v, n=4).
// One value has no spread to speak of.
func spread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}
