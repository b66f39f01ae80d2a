// Command bench is this repository's benchmark: five workloads over the
// static solver, the in-process ingest engine and the real server binary,
// each generated from a seed, checked against a sequential reference and
// reported as named metrics with units. bench/README.md describes the
// workloads, the metrics and how they interact; BENCHMARK.json at the
// repository root is the contract later changes are judged on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one named measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report collects what one run of one workload measured.
type report struct {
	workload  string
	attempted int64
	failed    int64
	errs      []string           // correctness failures; any entry fails the run
	native    []metric           // the workload's own metric names, in print order
	roles     map[string]float64 // end-to-end metrics of BENCHMARK.json
	layers    map[string]float64 // per-layer metrics of BENCHMARK.json
	notes     []string
}

func newReport(workload string) *report {
	return &report{workload: workload, roles: map[string]float64{}, layers: map[string]float64{}}
}

func (r *report) add(name string, v float64, unit string) {
	r.native = append(r.native, metric{name, v, unit})
}

func (r *report) errorf(format string, a ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, a...))
}

func (r *report) notef(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// sizes fixes how much work each workload does. full is what BENCHMARK.json
// is measured at; smoke is the scale bench_test.go runs every workload at.
type sizes struct {
	rmatScale, rmatEdges     int
	gridSide                 int
	setupReps                int
	buildReps                int // load_ms repetitions of BuildGraph
	warmSolves               int
	minSolves                int
	streamWarm               int
	streamMin                int
	burstEdges, burstWindows int
	recoverReps              int
	verifyReads              int
	panelEdges               int // edge prefix the layer panel runs on for stream/serve
	multisegBytes            uint64
}

var (
	full = sizes{
		rmatScale: 19, rmatEdges: 5 << 20, gridSide: 1500, setupReps: 3,
		buildReps: 5, warmSolves: 5, minSolves: 110,
		streamWarm: 3, streamMin: 15, burstEdges: 1 << 20, burstWindows: 6, recoverReps: 3,
		verifyReads: 2000, panelEdges: 1 << 20, multisegBytes: 4 << 20,
	}
	smoke = sizes{
		rmatScale: 12, rmatEdges: 40 << 10, gridSide: 100, setupReps: 1,
		buildReps: 3, warmSolves: 2, minSolves: 40,
		streamWarm: 1, streamMin: 5, burstEdges: 32 << 10, burstWindows: 2, recoverReps: 1,
		verifyReads: 200, panelEdges: 1 << 15, multisegBytes: 16 << 10,
	}
)

// run is one invocation's settings.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sz       sizes
	// breakReference corrupts the reference answer, so that the run must
	// report a correctness failure: the check on the checker.
	breakReference bool
	root           string // repository (checkout) root
	tmp            string // scratch directory inside the checkout, removed on exit
}

// cleanups run once, last registered first, on every exit path: normal
// return, correctness failure, panic, signal and the hard timeout.
var (
	cleanupMu sync.Mutex
	cleanups  []func()
)

func onExit(fn func()) {
	cleanupMu.Lock()
	cleanups = append(cleanups, fn)
	cleanupMu.Unlock()
}

func runCleanups() {
	cleanupMu.Lock()
	fns := cleanups
	cleanups = nil
	cleanupMu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// hardTimeout bounds one workload run. Network operations carry their own
// deadlines and turn a hung server into failed operations long before this;
// the timer is the backstop that keeps a hung run from hanging a pipeline.
const hardTimeout = 170 * time.Second

// findRoot returns the checkout root: the working directory when it holds
// BENCHMARK.json (how run.sh starts the program), else its parent (go test
// runs in bench/).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root")
}

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 0, "measured time per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
		all      = flag.Bool("all", false, "run every workload, each in its own process")
		smokeF   = flag.Bool("smoke", false, "tiny inputs and short rate steps: the scale the package tests run at")
		out      = flag.String("o", "", "with -all: also write the result set to this JSON file")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
		record   = flag.String("record", "", "run two back-to-back sets of -runs runs per workload and write them, with their spread, to this file (bench/history/<pr>.json)")
		runs     = flag.Int("runs", 0, "runs per workload, each on its own seed: per set with -record (default 10), in all with -all (default 1)")
		breakRef = flag.Bool("break-reference", false, "corrupt the reference answer; the run must then fail (tests the correctness check)")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	case *record != "":
		return recordHistory(spec, *record, orDefault(*runs, 10), *seconds, *smokeF)
	case *all:
		set, ok := runAll(spec, *seed, orDefault(*runs, 1), *seconds, *trace, *smokeF)
		if *out != "" {
			if err := writeJSON(*out, set); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
		}
		if !ok {
			return 1
		}
		return 0
	}

	if !spec.hasWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	r := run{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		sz: full, breakReference: *breakRef, root: root}
	if *smokeF {
		r.sz = smoke
	}

	// Every exit path below runs the cleanups: children die, temp dirs go.
	defer runCleanups()
	defer func() {
		if p := recover(); p != nil {
			runCleanups()
			panic(p)
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		runCleanups()
		os.Exit(130)
	}()
	watchdog := time.AfterFunc(hardTimeout, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded the %v hard timeout\n", r.workload, hardTimeout)
		runCleanups()
		os.Exit(3)
	})
	defer watchdog.Stop()

	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	r.tmp, err = os.MkdirTemp(base, r.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	onExit(func() { os.RemoveAll(r.tmp) })

	rep, err := runWorkload(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if !printReport(os.Stdout, spec, r, rep) {
		return 1
	}
	return 0
}

// hostInfo is recorded with every result: numbers from different hosts, core
// counts or filesystems are not comparable.
type hostInfo struct {
	Host       string `json:"host"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	FSType     string `json:"wal_fs_type"`
}

func host(root string) hostInfo {
	name, _ := os.Hostname()
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return hostInfo{Host: name, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, FSType: fsType(filepath.Join(root, ".bench_build"))}
}

// fsType names the filesystem the WAL directory lives on: fsync cost, and
// with it every ack latency, is a property of it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// peakRSSMB reads the peak resident set size (VmHWM) of a process.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// printReport prints every metric by name with its unit, the correctness
// verdict, and as the last line the one JSON object the contract asks for.
// It reports whether the run was correct.
func printReport(w io.Writer, spec *benchSpec, r run, rep *report) bool {
	h := host(r.root)
	mode := "end-to-end (tracing off)"
	list, vals := spec.EndToEnd, rep.roles
	if r.trace {
		mode = "per-layer (tracing on)"
		list, vals = spec.PerLayer, rep.layers
	}
	fmt.Fprintf(w, "# workload %s  seed %d  seconds %g  %s\n", r.workload, r.seed, r.seconds, mode)
	fmt.Fprintf(w, "# host %s  nproc %d  GOMAXPROCS %d  %s  commit %s  wal fs %s\n",
		h.Host, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.FSType)
	line := func(name string, v float64, unit string) {
		fmt.Fprintf(w, "%-34s %16.6g %-8s (%s)\n", name, v, unit, r.workload)
	}
	for _, m := range rep.native {
		// A workload's own name for a number BENCHMARK.json also lists is
		// printed once, below, with the contract's unit.
		if _, dup := vals[m.Name]; !dup {
			line(m.Name, m.Value, m.Unit)
		}
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, "# note:", n)
	}

	metrics := make(map[string]metricValue, len(list))
	for _, m := range list {
		v, ok := vals[m.Name]
		if !ok {
			rep.errorf("metric %s was not measured", m.Name)
			continue
		}
		line(m.Name, v, m.Unit)
		metrics[m.Name] = metricValue{v, m.Unit}
	}
	for name := range vals {
		if !spec.lists(name, r.trace) {
			rep.errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
	for _, e := range rep.errs {
		fmt.Fprintln(w, "# INCORRECT:", e)
	}
	correct := len(rep.errs) == 0 && rep.failed == 0
	fmt.Fprintf(w, "# attempted %d  failed %d  correct %v\n", rep.attempted, rep.failed, correct)
	// The run's full record — the workload's own names, the contract's
	// metrics, notes — for whoever wants more than the one line.
	full := map[string]any{"workload": r.workload, "seed": r.seed, "seconds": r.seconds, "trace": r.trace, "host": h,
		"native": rep.native, "metrics": metrics, "notes": rep.notes, "errors": rep.errs, "correct": correct}
	name := fmt.Sprintf("%s.seed%d.trace%d.json", r.workload, r.seed, b2i(r.trace))
	if err := writeJSON(filepath.Join(r.root, "bench", "out", name), full); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	last, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": max(rep.attempted, 1), "failed": rep.failed, "metrics": metrics,
	})
	fmt.Fprintln(w, string(last))
	return correct
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
