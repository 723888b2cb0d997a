// Command bench is the repository benchmark: it trains a fixture model,
// builds and boots the real `hdface serve` daemon, drives it over loopback
// HTTP with one of four traffic mixes, checks every answer it can against
// an in-process reference, and reports end-to-end metrics; with -trace 1 it
// then replays the workload's inputs through the layers in process and
// reports per-layer metrics. See README.md.
//
// From the repository root:
//
//	bash bench/run.sh --seed 1                            # every workload, 30s each
//	bash bench/run.sh --workload detect --seconds 30 --trace 0
//	bash bench/run.sh compare setA/*.json setB/*.json     # apply BENCHMARK.json bounds
//
// The last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics; the exit status is non-zero when any
// output check or validity gate failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		ok, err := compare(os.Stdout, os.Args[2:])
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "all", "predict, detect, stream, mixed or all")
	seed := fs.Uint64("seed", 1, "traffic seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measured seconds per workload")
	traceOn := fs.Int("trace", 1, "1 also runs the traced replay and reports per-layer metrics")
	out := fs.String("out", "", "directory for results, traces and logs (default .bench_build/out under the repository root)")
	fs.Parse(os.Args[1:])

	names := workloads
	if *workload != "all" {
		names = []string{*workload}
	}
	for _, n := range names {
		if !slices.Contains(workloads, n) {
			fatal(fmt.Errorf("unknown workload %q (want one of %s or all)", n, strings.Join(workloads, ", ")))
		}
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fatal(errors.New("-seconds must be positive and -trace 0 or 1"))
	}
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		*out = filepath.Join(root, ".bench_build", "out")
	}
	res, err := benchmark(root, *out, names, *seed, time.Duration(*seconds*float64(time.Second)), *traceOn == 1, fixtureD)
	if err != nil {
		fatal(err)
	}
	for _, r := range res {
		for _, l := range r.m.lines(r.rc.Workload) {
			fmt.Println(l)
		}
		for _, p := range r.problems {
			fmt.Printf("%s CHECK FAILED: %s\n", r.rc.Workload, p)
		}
		for _, p := range r.invalid {
			fmt.Printf("%s INVALID: %s\n", r.rc.Workload, p)
		}
	}
	line, ok := summaryLine(res, *traceOn == 1)
	fmt.Println(line)
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// repoRoot finds the repository this benchmark measures: the nearest
// directory, from the working directory up, holding cmd/hdface.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "hdface")); err == nil && st.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository with cmd/hdface above the working directory")
		}
		dir = parent
	}
}

// fixtureD is the hypervector dimensionality of the served fixture; the
// smoke test trains a smaller one.
const fixtureD = 2048

// runBudget is what one workload run may take beyond its measured window:
// boots, output checks and the traced replay.
const runBudget = 130 * time.Second

// benchmark builds the daemon, trains the fixture and runs each workload
// in turn, writing one result file (and, traced, one trace file) each.
func benchmark(root, out string, names []string, seed uint64, measure time.Duration, traced bool, d int) ([]*run, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	bin := filepath.Join(root, ".bench_build", "bin", "hdface")
	build := exec.Command("go", "build", "-o", bin, "./cmd/hdface")
	build.Dir, build.Stdout, build.Stderr = root, os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("build hdface: %w", err)
	}
	procs := runtime.NumCPU()
	fx, err := cachedFixture(filepath.Join(root, ".bench_build", "fixture"), d, procs)
	if err != nil {
		return nil, err
	}
	var res []*run
	for _, n := range names {
		start := time.Now()
		// A hung run must still end: past its budget the benchmark exits
		// non-zero, and the daemon dies with it (see startServer).
		watchdog := time.AfterFunc(measure+runBudget, func() {
			fmt.Fprintf(os.Stderr, "bench: workload %s overran its time budget\n", n)
			os.Exit(2)
		})
		r := runWorkload(runConfig{Workload: n, Seed: seed, Measure: measure, Trace: traced,
			Bin: bin, Out: out, Fx: fx, Procs: procs})
		watchdog.Stop()
		r.m.set("fixture_s", fx.Train.Seconds(), 1)
		if len(r.problems) == 0 {
			if miss := r.m.missing(endToEnd); len(miss) > 0 {
				r.problem("end-to-end metrics missing or not finite: %v", miss)
			}
			if miss := r.m.missing(perLayer); traced && len(miss) > 0 {
				r.problem("per-layer metrics missing or not finite: %v", miss)
			}
		}
		if err := r.writeResult(time.Since(start)); err != nil {
			return nil, err
		}
		res = append(res, r)
	}
	return res, nil
}

// envBlock records what a result was measured on.
type envBlock struct {
	NumCPU           int                `json:"num_cpu"`
	ServerGOMAXPROCS int                `json:"server_gomaxprocs"`
	GenGOMAXPROCS    int                `json:"generator_gomaxprocs"`
	GoVersion        string             `json:"go_version"`
	VCSRevision      string             `json:"vcs_revision"`
	Seed             uint64             `json:"seed"`
	Durations        map[string]float64 `json:"durations_s"`
	FixtureSHA256    string             `json:"fixture_sha256"`
	D                int                `json:"d"`
	Traced           bool               `json:"traced"`
	ServerFlags      []string           `json:"server_flags"`
}

func vcsRevision() string {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
	}
	return rev + modified
}

// resultFile is the JSON written per workload run; compare reads these.
type resultFile struct {
	Schema    string    `json:"schema"`
	Workload  string    `json:"workload"`
	Correct   bool      `json:"correct"`
	Problems  []string  `json:"problems,omitempty"`
	Invalid   []string  `json:"invalid,omitempty"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Env       envBlock  `json:"env"`
	Metrics   metricSet `json:"metrics"`
}

const resultSchema = "hdface-bench-result/v1"

func (r *run) writeResult(total time.Duration) error {
	res := resultFile{
		Schema: resultSchema, Workload: r.rc.Workload, Correct: r.ok(),
		Problems: r.problems, Invalid: r.invalid, Attempted: r.attempted, Failed: r.failed + r.degraded,
		Env: envBlock{
			NumCPU: runtime.NumCPU(), ServerGOMAXPROCS: r.rc.Procs, GenGOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), VCSRevision: vcsRevision(), Seed: r.rc.Seed,
			Durations:     map[string]float64{"fixture": r.rc.Fx.Train.Seconds(), "measure": r.rc.Measure.Seconds(), "workload_total": total.Seconds()},
			FixtureSHA256: r.rc.Fx.SHA256, D: r.rc.Fx.D, Traced: r.rc.Trace, ServerFlags: r.flags,
		},
		Metrics: r.m,
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", r.rc.Workload, r.rc.Seed, btoi(r.rc.Trace))
	if err := os.WriteFile(filepath.Join(r.rc.Out, name), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if r.trace != nil {
		return r.trace.write(r.rc.Out)
	}
	return nil
}

// summaryLine renders the final output line: correct, attempted, failed and
// the BENCHMARK.json metrics — end-to-end ones untraced, per-layer ones
// traced. With several workloads each metric name is prefixed by its
// workload. It also reports whether every run passed its checks.
func summaryLine(res []*run, traced bool) (string, bool) {
	k := endToEnd
	if traced {
		k = perLayer
	}
	// The result line carries each metric as exactly a value and a unit;
	// sample counts stay in the result file and the per-metric lines.
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Correct: true, Metrics: map[string]valueUnit{}}
	for _, r := range res {
		out.Correct = out.Correct && r.ok()
		out.Attempted += r.attempted
		out.Failed += r.failed + r.degraded
		for name, v := range r.m.ofKind(k) {
			if len(res) > 1 {
				name = r.rc.Workload + "." + name
			}
			out.Metrics[name] = valueUnit{v.Value, v.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a non-finite value can fail to encode; such a run has
		// already failed its completeness check.
		return fmt.Sprintf(`{"correct": false, "attempted": %d, "failed": %d, "metrics": {}}`, out.Attempted, out.Failed), false
	}
	return string(b), out.Correct
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
