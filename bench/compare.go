package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runResult is one run of one workload: the contract's result object plus
// what identifies the run.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultSet is what -all -o writes and -compare reads.
type resultSet struct {
	Host hostInfo    `json:"host"`
	Runs []runResult `json:"runs"`
}

// runSelf runs one workload in a process of its own — peak memory is a
// per-process number, and a workload must not inherit another's heap — and
// parses the result object off the last line of its output.
func runSelf(workload string, seed uint64, seconds float64, trace int, smoke, echo bool) (runResult, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	if echo {
		os.Stdout.Write(out)
	}
	res := runResult{Workload: workload, Seed: seed, Trace: trace}
	var last []byte
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("%s seed %d: no result object (%v, exit: %v)", workload, seed, err, runErr)
	}
	return res, nil
}

// runAll runs every workload `runs` times, on seeds seed, seed+1, …, and
// reports whether every run was correct.
func runAll(spec *benchSpec, seed uint64, runs int, seconds float64, trace int, smoke bool) (resultSet, bool) {
	root, _ := findRoot()
	set, ok := resultSet{Host: host(root)}, true
	for _, w := range spec.Workloads {
		for i := 0; i < runs; i++ {
			res, err := runSelf(w.Name, seed+uint64(i), seconds, trace, smoke, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
			ok = ok && err == nil && res.Correct
			set.Runs = append(set.Runs, res)
		}
	}
	return set, ok
}

// summary is one (workload, metric) pair over a set's runs.
type summary struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Runs     int     `json:"runs"`
	Median   float64 `json:"median"`
	Spread   float64 `json:"spread"` // (Q3 − Q1) / median
}

func summarize(set resultSet) map[[2]string]summary {
	vals := map[[2]string][]float64{}
	units := map[[2]string]string{}
	for _, r := range set.Runs {
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	out := make(map[[2]string]summary, len(vals))
	for k, v := range vals {
		out[k] = summary{k[0], k[1], units[k], len(v), median(v), quartileSpread(v)}
	}
	return out
}

// verdict of one (metric, workload) pair between a base set and a
// candidate: worse is how much worse the candidate's median is than the
// base's, as a share of the base's (negative = better).
type verdict struct {
	summary
	Base, Cand float64
	Worse      float64
	Bound      float64
	Verdict    string // ok | regressed | unresolved
}

// compareSets judges every end-to-end (metric, workload) pair by the bounds
// of BENCHMARK.json: unresolved when either set's quartile spread is wider
// than the bound (the runs cannot tell a change of that size from noise),
// regressed when the candidate's median is worse than the base's by more
// than the bound, ok otherwise.
func compareSets(spec *benchSpec, base, cand resultSet) []verdict {
	a, b := summarize(base), summarize(cand)
	var out []verdict
	for k, sa := range a {
		m := spec.endToEnd(k[1])
		sb, both := b[k]
		if m == nil || m.Bound == nil || !both {
			continue
		}
		worse := (sb.Median - sa.Median) / sa.Median
		if m.Better == "higher" {
			worse = -worse
		}
		v := verdict{summary: sa, Base: sa.Median, Cand: sb.Median, Worse: worse, Bound: *m.Bound, Verdict: "ok"}
		v.Spread = max(sa.Spread, sb.Spread)
		switch {
		case v.Spread > v.Bound:
			v.Verdict = "unresolved"
		case worse > v.Bound:
			v.Verdict = "regressed"
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

func readSet(path string) (resultSet, error) {
	var set resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	return set, json.Unmarshal(b, &set)
}

// compareFiles prints the verdict table and returns the exit code: 1 when
// any pair regressed.
func compareFiles(spec *benchSpec, pathA, pathB string) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return printVerdicts(compareSets(spec, a, b))
}

func printVerdicts(vs []verdict) int {
	code := 0
	fmt.Printf("%-18s %-14s %14s %14s %8s %8s %8s  %s\n", "workload", "metric", "base", "candidate", "worse", "spread", "bound", "verdict")
	for _, v := range vs {
		fmt.Printf("%-18s %-14s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%%  %s\n",
			v.Workload, v.Metric, v.Base, v.Cand, 100*v.Worse, 100*v.Spread, 100*v.Bound, v.Verdict)
		if v.Verdict == "regressed" {
			code = 1
		}
	}
	return code
}

// history is one entry of bench/history/: two back-to-back sets of runs of
// one commit, their per-pair medians and spreads, and how they compare.
type history struct {
	Host     hostInfo    `json:"host"`
	Seconds  float64     `json:"run_seconds"`
	SetA     []runResult `json:"set_a"`
	SetB     []runResult `json:"set_b"`
	SummaryA []summary   `json:"summary_a"`
	SummaryB []summary   `json:"summary_b"`
	Verdicts []verdict   `json:"a_vs_b"`
}

// recordHistory runs two back-to-back sets of `runs` runs per workload,
// each run on its own seed (set A: 1…runs, set B: runs+1…2·runs), and
// writes them with their spread. It is the acceptance rule applied to the
// benchmark itself: on one commit, no pair may come out regressed or
// unresolved.
func recordHistory(spec *benchSpec, path string, runs int, seconds float64, smoke bool) int {
	root, _ := findRoot()
	h := history{Host: host(root), Seconds: seconds}
	sets := [2]*[]runResult{&h.SetA, &h.SetB}
	ok := true
	for s, dst := range sets {
		for _, w := range spec.Workloads {
			for i := 0; i < runs; i++ {
				seed := uint64(s*runs + i + 1)
				res, err := runSelf(w.Name, seed, seconds, 0, smoke, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
				}
				ok = ok && err == nil && res.Correct
				fmt.Printf("set %c  %-18s seed %-3d correct %v\n", 'A'+s, w.Name, seed, res.Correct)
				*dst = append(*dst, res)
			}
		}
	}
	a, b := resultSet{Runs: h.SetA}, resultSet{Runs: h.SetB}
	h.SummaryA, h.SummaryB = sortedSummaries(summarize(a)), sortedSummaries(summarize(b))
	h.Verdicts = compareSets(spec, a, b)
	code := printVerdicts(h.Verdicts)
	for _, v := range h.Verdicts {
		if v.Verdict != "ok" {
			code = 1
		}
	}
	if err := writeJSON(path, h); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if !ok {
		return 1
	}
	return code
}

func sortedSummaries(m map[[2]string]summary) []summary {
	out := make([]summary, 0, len(m))
	for _, s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}
