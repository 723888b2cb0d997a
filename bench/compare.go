package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare applies.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of one compare row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges metric values of a baseline set a against a candidate set
// b. worse is the candidate median's relative change in the metric's bad
// direction; spread the wider of the two sets' interquartile ranges, each
// relative to its median. A spread wider than the bound leaves the row
// unresolved, unless every candidate run beats every baseline run; a
// worsening beyond the bound otherwise regresses.
func verdict(a, b []float64, higherBetter bool, bound float64) (v string, worse, spread float64) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / math.Abs(ma)
	if higherBetter {
		worse = -worse
	}
	for _, s := range [][]float64{a, b} {
		q1, q3 := quartiles(s)
		spread = math.Max(spread, (q3-q1)/math.Abs(median(s)))
	}
	if ma == 0 || math.IsNaN(worse) {
		return verdictUnresolved, worse, spread
	}
	if spread > bound {
		better := func(x, y float64) bool { return (higherBetter && x > y) || (!higherBetter && x < y) }
		for _, x := range b {
			for _, y := range a {
				if !better(x, y) {
					return verdictUnresolved, worse, spread
				}
			}
		}
		return verdictOK, worse, spread
	}
	if worse > bound {
		return verdictRegressed, worse, spread
	}
	return verdictOK, worse, spread
}

// readResults loads untraced result files (traced runs carry scraping
// load and are skipped), by workload.
func readResults(paths []string) (map[string][]resultFile, error) {
	out := map[string][]resultFile{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Schema != resultSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", p, r.Schema, resultSchema)
		}
		if r.Env.Traced {
			continue
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: run failed its checks: %v %v", p, r.Problems, r.Invalid)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, nil
}

// compare applies the BENCHMARK.json bounds to two sets of result files,
// the baseline first. args are file paths; the sets are told apart by
// directory, so `compare setA/*.json setB/*.json` works as written. It
// prints one row per workload and metric and reports whether no row
// regressed.
func compare(w io.Writer, args []string) (bool, error) {
	var dirs []string
	sets := map[string][]string{}
	for _, a := range args {
		d := filepath.Dir(a)
		if sets[d] == nil {
			dirs = append(dirs, d)
		}
		sets[d] = append(sets[d], a)
	}
	if len(dirs) != 2 {
		return false, fmt.Errorf("want result files from exactly two directories (baseline, candidate), got %d", len(dirs))
	}
	root, err := repoRoot()
	if err != nil {
		return false, err
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	a, err := readResults(sets[dirs[0]])
	if err != nil {
		return false, err
	}
	b, err := readResults(sets[dirs[1]])
	if err != nil {
		return false, err
	}
	var names []string
	for n := range a {
		if len(b[n]) > 0 {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return false, errors.New("no workload has untraced results in both sets")
	}
	sort.Strings(names)
	ok := true
	fmt.Fprintf(w, "%-8s %-14s %5s %12s %12s %12s %12s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "n", "A.q1", "A.median", "A.q3", "B.q1", "B.median", "B.q3", "worse", "spread", "bound", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			va, vb := values(a[wl], m.Name), values(b[wl], m.Name)
			v, worse, spread := verdict(va, vb, m.Better == "higher", m.Bound)
			ok = ok && v != verdictRegressed
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			fmt.Fprintf(w, "%-8s %-14s %2d/%-2d %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl, m.Name, len(va), len(vb), qa1, median(va), qa3, qb1, median(vb), qb3, 100*worse, 100*spread, 100*m.Bound, v)
		}
		// Output quality may drop by qualityDrop at most, absolute; any
		// increase in the share of failed requests is a regression.
		for _, q := range qualityMetrics {
			va, vb := values(a[wl], q), values(b[wl], q)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdictOK
			if median(vb) < median(va)-qualityDrop {
				v, ok = verdictRegressed, false
			}
			absRow(w, wl, q, va, vb, fmt.Sprintf("-%g", qualityDrop), v)
		}
		fa, fb := failedFracs(a[wl]), failedFracs(b[wl])
		v := verdictOK
		if median(fb) > median(fa) {
			v, ok = verdictRegressed, false
		}
		absRow(w, wl, "failed_frac", fa, fb, "+0", v)
	}
	return ok, nil
}

// Quality diagnostics compare checks with an absolute bound, since they
// are fractions with no regression bound in BENCHMARK.json.
var qualityMetrics = []string{"accuracy", "detect_f1", "stream_idf1"}

const qualityDrop = 0.02

func absRow(w io.Writer, wl, metric string, a, b []float64, bound, v string) {
	fmt.Fprintf(w, "%-8s %-14s %2d/%-2d %12s %12.5g %12s %12s %12.5g %12s %8s %8s %6s  %s\n",
		wl, metric, len(a), len(b), "", median(a), "", "", median(b), "", "", "", bound, v)
}

func values(rs []resultFile, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedFracs(rs []resultFile) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.Failed) / float64(max(r.Attempted, 1))
	}
	return out
}
