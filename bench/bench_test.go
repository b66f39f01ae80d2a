package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func testSpec(t *testing.T) (*benchSpec, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec, root
}

// smokeRun runs one workload in-process at smoke scale and returns what it
// printed, whether it judged itself correct, and the report.
func smokeRun(t *testing.T, workload string, seconds float64, trace, breakRef bool) (string, bool, *report) {
	t.Helper()
	spec, root := testSpec(t)
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp, err := os.MkdirTemp(base, "test-"+workload+"-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		runCleanups() // kills a child the workload left behind
		os.RemoveAll(tmp)
	})
	r := run{workload: workload, seed: 7, seconds: seconds, trace: trace, sz: smoke,
		breakReference: breakRef, root: root, tmp: tmp}
	rep, err := runWorkload(r)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	correct := printReport(&out, spec, r, rep)
	return out.String(), correct, rep
}

var metricLine = regexp.MustCompile(`^(\S+)\s+(\S+)\s+(\S+)\s+\((\S+)\)$`)

// checkOutput asserts the contract on one run's output: every listed metric
// printed exactly once with its unit, the last line one JSON object with
// exactly the contract's keys and exactly the listed metrics.
func checkOutput(t *testing.T, out string, list []metricSpec) {
	t.Helper()
	printed := map[string][]string{} // name → units, one per printed line
	var last string
	for sc := bufio.NewScanner(strings.NewReader(out)); sc.Scan(); {
		last = sc.Text()
		if m := metricLine.FindStringSubmatch(last); m != nil {
			printed[m[1]] = append(printed[m[1]], m[3])
		}
	}
	for _, m := range list {
		if units := printed[m.Name]; len(units) != 1 || units[0] != m.Unit {
			t.Errorf("%s printed with units %v, want exactly once with %q", m.Name, units, m.Unit)
		}
	}

	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, last)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result object lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result object has %d keys, want exactly 4", len(res))
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, m := range list {
		got, ok := metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("result metrics: %s = %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
		}
		delete(metrics, m.Name)
	}
	for name := range metrics {
		t.Errorf("result metrics hold %s, which BENCHMARK.json does not list for this mode", name)
	}
}

// Every workload, both modes, at smoke scale: names, units, correctness.
func TestWorkloadsAtSmokeScale(t *testing.T) {
	spec, root := testSpec(t)
	for _, w := range spec.Workloads {
		seconds := 0.3
		if w.Name == "serve_mixed" {
			if testing.Short() {
				continue // boots the real binary four times
			}
			seconds = 1.5
		}
		for _, trace := range []bool{false, true} {
			name := w.Name + "/end_to_end"
			if trace {
				name = w.Name + "/per_layer"
			}
			t.Run(name, func(t *testing.T) {
				out, correct, rep := smokeRun(t, w.Name, seconds, trace, false)
				if !correct {
					t.Errorf("run judged itself incorrect: %v\n%s", rep.errs, out)
				}
				if rep.attempted < 1 || rep.failed != 0 {
					t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
				}
				if trace {
					checkOutput(t, out, spec.PerLayer)
					if _, err := os.Stat(filepath.Join(root, "bench", "out", w.Name+".trace.json")); err != nil {
						t.Errorf("span file: %v", err)
					}
				} else {
					checkOutput(t, out, spec.EndToEnd)
					for _, m := range spec.EndToEnd {
						if rep.roles[m.Name] <= 0 {
							t.Errorf("%s = %g: end-to-end metrics are never 0", m.Name, rep.roles[m.Name])
						}
					}
				}
			})
		}
	}
}

// A deliberately wrong reference must fail the run: the check on the
// checker, for one workload of each kind that needs no server.
func TestWrongReferenceFailsTheRun(t *testing.T) {
	for _, w := range []string{"static_grid_csr", "static_rmat_cbin", "stream_mix_90_10"} {
		out, correct, rep := smokeRun(t, w, 0.2, false, true)
		if correct || len(rep.errs) == 0 {
			t.Errorf("%s: a broken reference went unnoticed", w)
		}
		if !strings.Contains(out, `"correct":false`) {
			t.Errorf("%s: result object does not say correct:false", w)
		}
	}
}

func TestServeNoticesAWrongReference(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the real binary")
	}
	if _, correct, _ := smokeRun(t, "serve_mixed", 1, false, true); correct {
		t.Error("serve_mixed: a broken reference went unnoticed")
	}
}

// BENCHMARK.json against the limits of the benchmark contract, so that a
// later edit is refused here and not by the driver.
func TestBenchmarkJSONMeetsTheContract(t *testing.T) {
	spec, root := testSpec(t)
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("file is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	json.Unmarshal(raw, &keys)
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("missing key %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("%d top-level keys, want exactly 6", len(keys))
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	// The driver's budget: 4 + 22 runs per workload, all inside 3420 s.
	if runs := 4 + 22*len(spec.Workloads); float64(runs)*(float64(spec.RunSeconds)+12) > 3420-120 {
		t.Errorf("%d runs of %d s plus ~12 s of set-up each do not fit 3420 s", runs, spec.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range spec.Workloads {
		use(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the program knows %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s, unit s, better lower")
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != nil {
			t.Errorf("%s: unit %q, better %q, bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	path := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	for _, p := range spec.Paths {
		if !path.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if len(spec.Command) == 0 || len(spec.Command) > 32 {
		t.Errorf("command has %d parts", len(spec.Command))
	}
	for _, c := range spec.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command part %q", c)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec, _ := testSpec(t)
	set := func(vals map[string][]float64) resultSet {
		var s resultSet
		for i := 0; i < 10; i++ {
			m := map[string]metricValue{}
			for name, v := range vals {
				m[name] = metricValue{Value: v[i%len(v)]}
			}
			s.Runs = append(s.Runs, runResult{Workload: "w", Metrics: m})
		}
		return s
	}
	steady := func(x float64) []float64 { return []float64{x, x * 1.001, x * 0.999} }
	base := set(map[string][]float64{"op_ms": steady(10), "mem_mb": steady(100), "read_ms": steady(5), "setup_s": steady(1)})
	cand := set(map[string][]float64{
		"op_ms":    steady(13),      // 30 % slower: past any bound
		"mem_mb":   steady(101),     // one per cent more: fine
		"read_ms":  {2, 5, 9, 3, 8}, // too noisy to call
		"setup_s":  steady(1.01),    // inside its bound
		"unlisted": steady(1),       // not an end-to-end metric: ignored
	})
	got := map[string]string{}
	for _, v := range compareSets(spec, base, cand) {
		got[v.Metric] = v.Verdict
	}
	want := map[string]string{"op_ms": "regressed", "mem_mb": "ok", "read_ms": "unresolved", "setup_s": "ok"}
	for m, w := range want {
		if got[m] != w {
			t.Errorf("%s: verdict %q, want %q", m, got[m], w)
		}
	}
	if _, ok := got["unlisted"]; ok {
		t.Error("a metric without a bound got a verdict")
	}
	// "higher is better" turns the sign: a rate that fell 40 % regressed,
	// one that rose did not.
	up := 0.25
	rate := &benchSpec{EndToEnd: []metricSpec{{Name: "rate", Better: "higher", Bound: &up}}}
	for cand, want := range map[float64]string{60: "regressed", 140: "ok"} {
		vs := compareSets(rate, set(map[string][]float64{"rate": steady(100)}), set(map[string][]float64{"rate": steady(cand)}))
		if len(vs) != 1 || vs[0].Verdict != want {
			t.Errorf("rate 100 → %g: %+v, want %s", cand, vs, want)
		}
	}
}
