// Command experiments regenerates the paper's tables and figures
// (DESIGN.md §6 maps each experiment to its implementation). Each
// experiment prints the same rows/series the paper reports, at container
// scale; EXPERIMENTS.md records the paper-shape vs measured-shape
// comparison produced by this tool.
//
// Usage:
//
//	experiments -run table2          # one experiment
//	experiments -run all             # everything
//	experiments -run table3 -quick   # smaller graphs, fewer trials
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"connectit"
	"connectit/internal/baseline"
	"connectit/internal/bfs"
	"connectit/internal/core"
	"connectit/internal/graph"
	"connectit/internal/ingest"
	"connectit/internal/liutarjan"
	"connectit/internal/parallel"
	"connectit/internal/sample"
	"connectit/internal/stinger"
	"connectit/internal/unionfind"
)

var quick = flag.Bool("quick", false, "smaller graphs and fewer trials")

type experiment struct {
	name string
	desc string
	run  func()
}

func main() {
	log.SetFlags(0)
	runName := flag.String("run", "", "experiment to run (or 'all'); empty lists experiments")
	flag.Parse()
	if err := run(*runName); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func run(runName string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v (experiments are selected with -run)", flag.Args())
	}

	experiments := []experiment{
		{"table1", "largest-graph shootout: ConnectIt vs baseline systems", table1},
		{"table2", "graph inputs inventory (n, m, diameter, components)", table2},
		{"table3", "static running times: families x sampling x graphs", table3},
		{"figure3", "union-find variant slowdown matrix, no sampling", figure3},
		{"figure6", "TPL/MPL vs running time + Pearson correlations", figure6},
		{"figure11", "Liu-Tarjan variant slowdown matrix", figure11},
		{"figure13", "union-find matrices under kout/bfs/ldd sampling", figure13},
		{"table4", "maximum streaming throughput per algorithm", table4},
		{"figure4", "streaming throughput vs batch size", figure4},
		{"figure17", "throughput vs insert-to-query ratio", figure17},
		{"figure18", "per-batch latency regularity", figure18},
		{"table5", "STINGER vs ConnectIt streaming comparison", table5},
		{"table6", "BFS/LDD sampling quality", table6},
		{"table7", "k-out sampling quality", table7},
		{"figure19", "LDD beta sweep: time, inter-component edges, coverage", figure19},
		{"figure22", "k-out variant sweep: time, inter-component edges, coverage", figure22},
		{"table8", "MapEdges/GatherEdges bounds vs ConnectIt", table8},
		{"compressed", "CSR vs compressed backend: throughput and space", compressedBackend},
		{"forest", "spanning forest overhead vs connectivity", forestOverhead},
		{"ingest", "concurrent ingest engine: mixed update/query throughput vs STINGER", ingestMixed},
		{"sched", "parallel substrate: persistent pool vs spawn-per-call, grain sweep, steal counts", schedSubstrate},
	}

	if runName == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments {
			fmt.Printf("  %-10s %s\n", e.name, e.desc)
		}
		return nil
	}
	ran := false
	for _, e := range experiments {
		if runName == "all" || runName == e.name {
			fmt.Printf("== %s: %s ==\n", e.name, e.desc)
			e.run()
			fmt.Println()
			ran = true
			if runName != "all" {
				return nil
			}
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (run with no -run to list)", runName)
	}
	return nil
}

// ---- graph panel ----------------------------------------------------------

func scaleFor(full int) int {
	if *quick {
		return full - 3
	}
	return full
}

func panel() (names []string, graphs map[string]*connectit.Graph) {
	s := scaleFor(16)
	grid := 300
	if *quick {
		grid = 100
	}
	graphs = map[string]*connectit.Graph{
		"road":   connectit.NewGrid2D(grid, grid),
		"social": connectit.NewRMAT(s, 16*(1<<s), 42),
		"ba":     connectit.NewBarabasiAlbert(1<<s, 10, 43),
		"web":    connectit.NewWebLike(s, 8*(1<<s), 0.05, 44),
	}
	return []string{"road", "social", "ba", "web"}, graphs
}

func trials() int {
	if *quick {
		return 3
	}
	return 5
}

// timeIt returns the best-of-trials wall time of f.
func timeIt(f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for t := 0; t < trials(); t++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

func secs(d time.Duration) string { return fmt.Sprintf("%.3e", d.Seconds()) }

// ---- experiments ----------------------------------------------------------

func table1() {
	s := scaleFor(18)
	g := connectit.NewWebLike(s, 8*(1<<s), 0.05, 7)
	fmt.Printf("large graph (Hyperlink stand-in): n=%d m=%d\n", g.NumVertices(), g.NumEdges())
	ci := connectit.MustCompile(connectit.DefaultConfig())
	rows := []struct {
		name string
		run  func()
	}{
		{"ConnectIt (kout + Union-Rem-CAS)", func() { _, _ = ci.ComponentsOn(g) }},
		{"GBBS WorkefficientCC", func() { baseline.WorkEfficientCC(g, 0.2, 3) }},
		{"BFSCC (Ligra)", func() { baseline.BFSCC(g) }},
		{"GAPBS Afforest", func() { baseline.Afforest(g, 2, 3) }},
		{"PatwaryRM", func() { baseline.PatwaryRM(g) }},
	}
	fmt.Printf("%-36s %12s\n", "System", "Time (s)")
	for _, r := range rows {
		fmt.Printf("%-36s %12s\n", r.name, secs(timeIt(r.run)))
	}
}

func table2() {
	names, graphs := panel()
	fmt.Printf("%-8s %12s %12s %8s %10s %14s\n", "Dataset", "n", "m", "Diam*", "NumComps", "LargestComp")
	for _, name := range names {
		g := graphs[name]
		labels, err := connectit.Connectivity(g, connectit.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		q := connectit.QueryLabels(labels)
		comps, _ := q.NumComponents()
		// Effective diameter lower bound: BFS eccentricity from a vertex of
		// the largest component (the paper's * entries are the same bound).
		lbl, largest, _ := q.LargestComponent()
		src := 0
		for v, l := range labels {
			if l == lbl {
				src = v
				break
			}
		}
		diam := bfs.Run(g, graph.Vertex(src)).Rounds - 1
		fmt.Printf("%-8s %12d %12d %8d %10d %14d\n",
			name, g.NumVertices(), g.NumEdges(), diam, comps, largest)
	}
}

// familyRows builds Table 3's per-family representative rows from their
// canonical spec strings.
func familyRows() []connectit.Algorithm {
	var out []connectit.Algorithm
	for _, spec := range []string{
		"uf;early;naive;split-one",
		"uf;hooks;naive;split-one",
		"uf;async;naive;split-one",
		"uf;rem-cas;naive;split-one",
		"uf;rem-lock;naive;split-one",
		"uf;jtb;two-try",
		"lt;PRF", // among the fastest LT variants (§C.1.1)
		"sv",
		"lp",
	} {
		out = append(out, connectit.MustParseAlgorithm(spec))
	}
	return out
}

func table3() {
	names, graphs := panel()
	modes := []core.SamplingMode{core.NoSampling, core.KOutSampling, core.BFSSampling, core.LDDSampling}
	for _, mode := range modes {
		fmt.Printf("-- %s sampling --\n", mode)
		fmt.Printf("%-34s", "Algorithm")
		for _, n := range names {
			fmt.Printf(" %10s", n)
		}
		fmt.Println()
		for _, alg := range familyRows() {
			fmt.Printf("%-34s", alg.Name())
			solver := connectit.MustCompile(connectit.Config{Sampling: mode, Algorithm: alg, Seed: 1})
			for _, n := range names {
				g := graphs[n]
				d := timeIt(func() { _, _ = solver.ComponentsOn(g) })
				fmt.Printf(" %10s", secs(d))
			}
			fmt.Println()
		}
	}
	fmt.Println("-- other systems --")
	systems := []struct {
		name string
		run  func(*connectit.Graph)
	}{
		{"BFSCC", func(g *connectit.Graph) { baseline.BFSCC(g) }},
		{"WorkefficientCC", func(g *connectit.Graph) { baseline.WorkEfficientCC(g, 0.2, 3) }},
		{"MultiStep", func(g *connectit.Graph) { baseline.MultiStep(g) }},
		{"GAPBS (Shiloach-Vishkin)", func(g *connectit.Graph) { baseline.GAPBSShiloachVishkin(g) }},
		{"GAPBS (Afforest)", func(g *connectit.Graph) { baseline.Afforest(g, 2, 3) }},
		{"PatwaryRM", func(g *connectit.Graph) { baseline.PatwaryRM(g) }},
	}
	fmt.Printf("%-34s", "System")
	for _, n := range names {
		fmt.Printf(" %10s", n)
	}
	fmt.Println()
	for _, sys := range systems {
		fmt.Printf("%-34s", sys.name)
		for _, n := range names {
			g := graphs[n]
			d := timeIt(func() { sys.run(g) })
			fmt.Printf(" %10s", secs(d))
		}
		fmt.Println()
	}
}

// matrix prints relative slowdowns vs the fastest entry, the heatmap
// encoding of Figures 3/11/13-15.
func matrix(title string, rows []string, times []time.Duration) {
	best := time.Duration(math.MaxInt64)
	for _, t := range times {
		if t < best {
			best = t
		}
	}
	fmt.Printf("-- %s (slowdown vs fastest %s) --\n", title, secs(best))
	type row struct {
		name string
		s    float64
	}
	var rs []row
	for i := range rows {
		rs = append(rs, row{rows[i], float64(times[i]) / float64(best)})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].s < rs[j].s })
	for _, r := range rs {
		fmt.Printf("  %-42s %5.2fx\n", r.name, r.s)
	}
}

func ufMatrix(mode core.SamplingMode, g *connectit.Graph) ([]string, []time.Duration) {
	var names []string
	var times []time.Duration
	for _, v := range unionfind.Variants() {
		solver := connectit.MustCompile(connectit.Config{
			Sampling:  mode,
			Algorithm: connectit.Algorithm{Kind: core.FinishUnionFind, UF: v},
			Seed:      2,
		})
		names = append(names, v.Name())
		times = append(times, timeIt(func() { _, _ = solver.ComponentsOn(g) }))
	}
	return names, times
}

func figure3() {
	_, graphs := panel()
	g := graphs["social"]
	names, times := ufMatrix(core.NoSampling, g)
	matrix("union-find variants, no sampling, social graph", names, times)
}

func figure13() {
	_, graphs := panel()
	g := graphs["social"]
	for _, mode := range []core.SamplingMode{core.KOutSampling, core.BFSSampling, core.LDDSampling} {
		names, times := ufMatrix(mode, g)
		matrix(fmt.Sprintf("union-find variants, %s sampling", mode), names, times)
	}
}

func figure11() {
	_, graphs := panel()
	g := graphs["social"]
	var names []string
	var times []time.Duration
	for _, v := range liutarjan.Variants() {
		solver := connectit.MustCompile(connectit.Config{Algorithm: connectit.Algorithm{Kind: core.FinishLiuTarjan, LT: v}})
		names = append(names, v.Code())
		times = append(times, timeIt(func() { _, _ = solver.ComponentsOn(g) }))
	}
	matrix("Liu-Tarjan variants, no sampling, social graph", names, times)
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	num := n*sxy - sx*sy
	den := math.Sqrt(n*sxx-sx*sx) * math.Sqrt(n*syy-sy*sy)
	if den == 0 {
		return 0
	}
	return num / den
}

func figure6() {
	_, graphs := panel()
	var tpls, mpls, secsF []float64
	fmt.Printf("%-44s %-8s %12s %12s %10s\n", "Variant", "Graph", "TPL", "MPL", "Time(s)")
	for _, gname := range []string{"social", "web"} {
		g := graphs[gname]
		for _, v := range unionfind.Variants() {
			var stats connectit.Stats
			solver := connectit.MustCompile(connectit.Config{
				Algorithm: connectit.Algorithm{Kind: core.FinishUnionFind, UF: v},
				Stats:     &stats,
			})
			stats.Reset()
			start := time.Now()
			_, _ = solver.ComponentsOn(g)
			el := time.Since(start).Seconds()
			fmt.Printf("%-44s %-8s %12d %12d %10.4f\n",
				v.Name(), gname, stats.TotalPathLength(), stats.MaxPathLength(), el)
			tpls = append(tpls, float64(stats.TotalPathLength()))
			mpls = append(mpls, float64(stats.MaxPathLength()))
			secsF = append(secsF, el)
		}
	}
	fmt.Printf("Pearson r(TPL, time) = %.3f (paper: 0.738)\n", pearson(tpls, secsF))
	fmt.Printf("Pearson r(MPL, time) = %.3f (paper: 0.344)\n", pearson(mpls, secsF))
}

func streamFamilies() []connectit.Algorithm {
	var out []connectit.Algorithm
	for _, spec := range []string{
		"uf;early;naive;split-one",
		"uf;hooks;naive;split-one",
		"uf;async;naive;split-one",
		"uf;rem-cas;naive;split-one",
		"uf;rem-lock;naive;split-one",
		"uf;jtb;two-try",
		"lt;CRFA", // the paper's fastest streaming LT
		"sv",
	} {
		out = append(out, connectit.MustParseAlgorithm(spec))
	}
	return out
}

func streams() (names []string, data map[string]struct {
	edges []connectit.Edge
	n     int
}) {
	s := scaleFor(17)
	data = map[string]struct {
		edges []connectit.Edge
		n     int
	}{
		"RMAT": {connectit.RMATEdges(s, 10*(1<<s), 5), 1 << s},
		"BA":   {connectit.BarabasiAlbertEdges(1<<(s-1), 10, 6), 1 << (s - 1)},
	}
	return []string{"RMAT", "BA"}, data
}

func table4() {
	names, data := streams()
	fmt.Printf("%-34s", "Algorithm")
	for _, n := range names {
		fmt.Printf(" %12s", n)
	}
	fmt.Println("   (edge updates/sec)")
	for _, alg := range streamFamilies() {
		fmt.Printf("%-34s", alg.Name())
		solver := connectit.MustCompile(connectit.Config{Algorithm: alg})
		for _, n := range names {
			st := data[n]
			d := timeIt(func() {
				inc, err := solver.NewIncremental(st.n)
				if err != nil {
					log.Fatal(err)
				}
				inc.ProcessBatch(st.edges, nil)
			})
			fmt.Printf(" %12.3g", float64(len(st.edges))/d.Seconds())
		}
		fmt.Println()
	}
}

func figure4() {
	_, data := streams()
	st := data["BA"]
	algos := []connectit.Algorithm{
		connectit.MustParseAlgorithm("uf;rem-cas;naive;split-one"),
		connectit.MustParseAlgorithm("uf;async;naive;split-one"),
		connectit.MustParseAlgorithm("sv"),
	}
	fmt.Printf("%-10s", "BatchSize")
	for _, a := range algos {
		fmt.Printf(" %24s", a.Name())
	}
	fmt.Println("   (updates/sec)")
	for _, batch := range []int{1000, 10_000, 100_000, 1_000_000} {
		fmt.Printf("%-10d", batch)
		for _, alg := range algos {
			solver := connectit.MustCompile(connectit.Config{Algorithm: alg})
			d := timeIt(func() {
				inc, err := solver.NewIncremental(st.n)
				if err != nil {
					log.Fatal(err)
				}
				for lo := 0; lo < len(st.edges); lo += batch {
					hi := lo + batch
					if hi > len(st.edges) {
						hi = len(st.edges)
					}
					inc.ProcessBatch(st.edges[lo:hi], nil)
				}
			})
			fmt.Printf(" %24.3g", float64(len(st.edges))/d.Seconds())
		}
		fmt.Println()
	}
}

func figure17() {
	_, data := streams()
	st := data["BA"]
	variants := []connectit.Algorithm{
		connectit.MustParseAlgorithm("uf;rem-cas;naive;split-one"),
		connectit.MustParseAlgorithm("uf;rem-cas;split;split-one"),
		connectit.MustParseAlgorithm("uf;rem-cas;halve;halve-one"),
	}
	fmt.Printf("%-8s", "Ratio")
	for _, a := range variants {
		fmt.Printf(" %30s", strings.TrimPrefix(a.Name(), "Union-Rem-CAS;"))
	}
	fmt.Println("   (ops/sec)")
	for _, ratio := range []float64{0.1, 0.3, 0.5, 0.7, 1.0} {
		nq := 0
		if ratio < 1 {
			nq = int(float64(len(st.edges)) * (1/ratio - 1))
		}
		queries := make([][2]uint32, nq)
		for i := range queries {
			h := graph.Hash64(uint64(i) + 77)
			queries[i] = [2]uint32{uint32(h % uint64(st.n)), uint32(graph.Hash64(h) % uint64(st.n))}
		}
		fmt.Printf("%-8.1f", ratio)
		for _, alg := range variants {
			solver := connectit.MustCompile(connectit.Config{Algorithm: alg})
			d := timeIt(func() {
				inc, err := solver.NewIncremental(st.n)
				if err != nil {
					log.Fatal(err)
				}
				inc.ProcessBatch(st.edges, queries)
			})
			fmt.Printf(" %30.3g", float64(len(st.edges)+nq)/d.Seconds())
		}
		fmt.Println()
	}
}

func figure18() {
	_, data := streams()
	st := data["RMAT"]
	solver := connectit.MustCompile(connectit.Config{Algorithm: connectit.MustParseAlgorithm("uf;rem-cas;naive;split-one")})
	fmt.Printf("%-10s %14s %14s %14s\n", "BatchSize", "median(s)", "mean(s)", "max(s)")
	for _, batch := range []int{1000, 10_000, 100_000} {
		inc, err := solver.NewIncremental(st.n)
		if err != nil {
			log.Fatal(err)
		}
		var lat []float64
		for lo := 0; lo+batch <= len(st.edges); lo += batch {
			start := time.Now()
			inc.ProcessBatch(st.edges[lo:lo+batch], nil)
			lat = append(lat, time.Since(start).Seconds())
		}
		sort.Float64s(lat)
		var sum float64
		for _, l := range lat {
			sum += l
		}
		fmt.Printf("%-10d %14.3e %14.3e %14.3e\n",
			batch, lat[len(lat)/2], sum/float64(len(lat)), lat[len(lat)-1])
	}
}

func table5() {
	s := scaleFor(14)
	n := 1 << s
	stream := connectit.RMATEdges(s, 1<<(s+6), 9)
	fmt.Printf("%-10s %16s %16s %10s\n", "BatchSize", "STINGER ups", "ConnectIt ups", "Speedup")
	for _, batch := range []int{10, 100, 1000, 10_000, 100_000} {
		if batch > len(stream) {
			break
		}
		nBatches := len(stream) / batch
		if nBatches > 200 {
			nBatches = 200
		}
		st := stinger.New(n)
		start := time.Now()
		for i := 0; i < nBatches; i++ {
			st.InsertBatch(stream[i*batch : (i+1)*batch])
		}
		stingerRate := float64(nBatches*batch) / time.Since(start).Seconds()

		inc, err := connectit.NewIncremental(n, connectit.Config{
			Algorithm: connectit.MustParseAlgorithm("uf;rem-cas;naive;split-one"),
		})
		if err != nil {
			log.Fatal(err)
		}
		start = time.Now()
		for i := 0; i < nBatches; i++ {
			inc.ProcessBatch(stream[i*batch:(i+1)*batch], nil)
		}
		connectitRate := float64(nBatches*batch) / time.Since(start).Seconds()
		fmt.Printf("%-10d %16.3g %16.3g %9.0fx\n", batch, stingerRate, connectitRate, connectitRate/stingerRate)
	}
}

func samplingQualityRow(g *connectit.Graph, name string, run func() *sample.Result) {
	d := timeIt(func() { run() })
	r := run()
	freq := sample.MostFrequent(r.Labels, 1)
	cov := sample.Coverage(r.Labels, freq) * 100
	inter := float64(sample.InterComponentEdges(g, r.Labels)) / float64(g.NumDirectedEdges()) * 100
	fmt.Printf("%-22s %10s %9.1f%% %10.4f%%\n", name, secs(d), cov, inter)
}

func table6() {
	names, graphs := panel()
	fmt.Printf("%-22s %10s %10s %11s\n", "Graph/Scheme", "Time(s)", "Coverage", "InterComp")
	for _, n := range names {
		g := graphs[n]
		samplingQualityRow(g, n+"/BFS", func() *sample.Result { return sample.BFS(g, 3, 5, false) })
		samplingQualityRow(g, n+"/LDD", func() *sample.Result { return sample.LDD(g, 0.2, false, 5, false) })
	}
}

func table7() {
	names, graphs := panel()
	fmt.Printf("%-22s %10s %10s %11s\n", "Graph/Scheme", "Time(s)", "Coverage", "InterComp")
	for _, n := range names {
		g := graphs[n]
		samplingQualityRow(g, n+"/KOut(Hybrid)", func() *sample.Result {
			return sample.KOut(g, 2, sample.KOutHybrid, 5, false)
		})
	}
}

func figure19() {
	_, graphs := panel()
	fmt.Printf("%-8s %-8s %-8s %10s %10s %11s\n", "Graph", "Beta", "Permute", "Time(s)", "Coverage", "InterComp")
	for _, gname := range []string{"road", "web"} {
		g := graphs[gname]
		for _, beta := range []float64{0.05, 0.1, 0.2, 0.4, 0.8} {
			for _, permute := range []bool{false, true} {
				d := timeIt(func() { sample.LDD(g, beta, permute, 5, false) })
				r := sample.LDD(g, beta, permute, 5, false)
				freq := sample.MostFrequent(r.Labels, 1)
				cov := sample.Coverage(r.Labels, freq) * 100
				inter := float64(sample.InterComponentEdges(g, r.Labels)) / float64(g.NumDirectedEdges()) * 100
				fmt.Printf("%-8s %-8.2f %-8v %10s %9.1f%% %10.3f%%\n", gname, beta, permute, secs(d), cov, inter)
			}
		}
	}
}

func figure22() {
	_, graphs := panel()
	variants := []sample.KOutVariant{sample.KOutHybrid, sample.KOutAfforest, sample.KOutPure, sample.KOutMaxDeg}
	fmt.Printf("%-8s %-4s %-14s %10s %10s %11s\n", "Graph", "k", "Variant", "Time(s)", "Coverage", "InterComp")
	for _, gname := range []string{"road", "web"} {
		g := graphs[gname]
		for _, k := range []int{1, 2, 3, 5} {
			for _, variant := range variants {
				d := timeIt(func() { sample.KOut(g, k, variant, 5, false) })
				r := sample.KOut(g, k, variant, 5, false)
				freq := sample.MostFrequent(r.Labels, 1)
				cov := sample.Coverage(r.Labels, freq) * 100
				inter := float64(sample.InterComponentEdges(g, r.Labels)) / float64(g.NumDirectedEdges()) * 100
				fmt.Printf("%-8s %-4d %-14s %10s %9.1f%% %10.4f%%\n", gname, k, variant, secs(d), cov, inter)
			}
		}
	}
}

func table8() {
	names, graphs := panel()
	fmt.Printf("%-8s %12s %14s %16s %14s\n", "Graph", "MapEdges", "GatherEdges", "CC(NoSample)", "CC(Sample)")
	for _, n := range names {
		g := graphs[n]
		data := make([]uint32, g.NumVertices())
		tMap := timeIt(func() { core.MapEdges(g) })
		tGather := timeIt(func() { core.GatherEdges(g, data) })
		noSample := connectit.DefaultConfig()
		noSample.Sampling = core.NoSampling
		noSolver := connectit.MustCompile(noSample)
		sSolver := connectit.MustCompile(connectit.DefaultConfig())
		tNo := timeIt(func() { _, _ = noSolver.ComponentsOn(g) })
		tS := timeIt(func() { _, _ = sSolver.ComponentsOn(g) })
		fmt.Printf("%-8s %12s %14s %16s %14s\n", n, secs(tMap), secs(tGather), secs(tNo), secs(tS))
	}
}

// compressedBackend reproduces the shape of the paper's compressed-graph
// evaluation (§3.6: ConnectIt runs directly on compressed inputs at a
// modest decode overhead, buying back the memory that lets the largest
// graphs fit): per panel graph, both backends' resident bytes, and the
// CSR-vs-compressed running time of one representative algorithm per
// family with sampling disabled (the whole edge set is traversed, so the
// slowdown isolates decode cost).
func compressedBackend() {
	names, graphs := panel()
	algos := []string{"uf;rem-cas;naive;split-one", "uf;jtb;two-try", "sv", "lt;PRF", "stergiou", "lp"}
	for _, name := range names {
		g := graphs[name]
		c := connectit.Compress(g)
		fmt.Printf("%s: csr=%d bytes, compressed=%d bytes (%.2fx smaller, %.2f vs %.2f bytes/directed-edge)\n",
			name, g.SizeBytes(), c.SizeBytes(), float64(g.SizeBytes())/float64(c.SizeBytes()),
			float64(g.SizeBytes())/float64(g.NumDirectedEdges()),
			float64(c.SizeBytes())/float64(c.NumDirectedEdges()))
		fmt.Printf("  %-32s %12s %14s %10s\n", "Algorithm", "CSR (s)", "Compressed (s)", "Slowdown")
		for _, spec := range algos {
			solver := connectit.MustCompile(connectit.Config{Algorithm: connectit.MustParseAlgorithm(spec)})
			tCSR := timeIt(func() { _, _ = solver.ComponentsOn(g) })
			tComp := timeIt(func() { _, _ = solver.ComponentsOn(c) })
			fmt.Printf("  %-32s %12s %14s %9.2fx\n", spec, secs(tCSR), secs(tComp),
				float64(tComp)/float64(tCSR))
		}
	}
}

// ingestMixed drives the concurrent ingest engine (internal/ingest) with 8
// producers at 90/10, 50/50, and 10/90 update:query mixes on one
// representative algorithm per stream type, against a coarse-locked STINGER
// baseline — the hybrid transactional/analytical regime Polynesia targets.
func ingestMixed() {
	s := scaleFor(16)
	n := 1 << s
	edges := connectit.BarabasiAlbertEdges(n, 10, 11)
	const producers = 8
	algos := []connectit.Algorithm{
		connectit.MustParseAlgorithm("uf;rem-cas;naive;split-one"), // Type i
		connectit.MustParseAlgorithm("sv"),                         // Type ii
		connectit.MustParseAlgorithm("uf;rem-cas;naive;splice"),    // Type iii
	}
	fmt.Printf("%-36s %-8s %14s %14s %12s\n", "Algorithm", "Mix", "updates/s", "queries/s", "epochs/round")
	for _, mix := range []float64{0.1, 0.5, 0.9} {
		for _, alg := range algos {
			solver := connectit.MustCompile(connectit.Config{Algorithm: alg})
			st, err := solver.Stream(n)
			if err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			queries := ingest.DriveStream(st, edges, n, producers, mix)
			st.Sync()
			elapsed := time.Since(start)
			stats := st.Stats()
			perRound := "-"
			if stats.Rounds > 0 {
				perRound = fmt.Sprintf("%.2f", float64(stats.Epochs)/float64(stats.Rounds))
			}
			fmt.Printf("%-36s %.0f/%.0f %14.3g %14.3g %12s\n", alg.Name(), 100*(1-mix), 100*mix,
				float64(stats.Updates)/elapsed.Seconds(), float64(queries)/elapsed.Seconds(), perRound)
		}
		// Coarse-locked STINGER: concurrent producers serialize on one lock.
		sti := stinger.NewCoarse(n)
		start := time.Now()
		q := ingest.Drive(sti.Update, sti.Connected, edges, n, producers, mix)
		elapsed := time.Since(start)
		fmt.Printf("%-36s %.0f/%.0f %14.3g %14.3g %12s\n", "STINGER (coarse lock)", 100*(1-mix), 100*mix,
			float64(len(edges))/elapsed.Seconds(), float64(q)/elapsed.Seconds(), "-")
	}

	// The Type ii epoch-size sweep: each synchronous round costs O(n), so
	// small epochs are affordable only as far as queued epochs coalesce
	// into shared rounds (DESIGN.md §9).
	fmt.Printf("\nType ii (sv) epoch-size sweep, 90/10 mix:\n")
	fmt.Printf("%-10s %14s %12s\n", "epoch", "updates/s", "epochs/round")
	solver := connectit.MustCompile(connectit.Config{Algorithm: connectit.MustParseAlgorithm("sv")})
	for _, epoch := range []int{64, 256, 1024, 4096} {
		st, err := solver.Stream(n, connectit.StreamOptions{EpochSize: epoch})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		ingest.DriveStream(st, edges, n, producers, 0.1)
		st.Sync()
		rate := float64(len(edges)) / time.Since(start).Seconds()
		perRound := "-"
		if stats := st.Stats(); stats.Rounds > 0 {
			perRound = fmt.Sprintf("%.2f", float64(stats.Epochs)/float64(stats.Rounds))
		}
		fmt.Printf("%-10d %14.3g %12s\n", epoch, rate, perRound)
	}
}

// schedSubstrate measures the parallel substrate itself (DESIGN.md §2):
// the persistent fork-join pool against the retained spawn-per-call
// reference, across grain sizes, on a flat sweep, a round-structured
// 4-sweep shape (the Liu-Tarjan / Shiloach-Vishkin pattern, where the
// pool's epoch-barrier spin phase catches back-to-back calls), and a
// skewed load (where the per-worker ranges hand work to the randomized
// stealer). The pool counter deltas — chunks, steals, wakes, parks — are
// printed for the skewed run.
func schedSubstrate() {
	n := 1 << 22
	reps := 40
	if *quick {
		n = 1 << 19
		reps = 10
	}
	data := make([]uint32, n)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i]++
		}
	}
	fmt.Printf("procs=%d, n=%d, %d reps per cell\n", parallel.Procs(), n, reps)

	fmt.Printf("\n%-12s %14s %14s %10s\n", "grain", "pool(s)", "spawn(s)", "pool/spawn")
	for _, grain := range []int{128, 512, 2048, 8192} {
		tPool := timeIt(func() {
			for r := 0; r < reps; r++ {
				parallel.ForGrained(n, grain, body)
			}
		})
		tSpawn := timeIt(func() {
			for r := 0; r < reps; r++ {
				parallel.ForGrainedSpawn(n, grain, body)
			}
		})
		fmt.Printf("%-12d %14s %14s %9.2fx\n", grain, secs(tPool), secs(tSpawn), float64(tPool)/float64(tSpawn))
	}

	fmt.Printf("\nround shape (4 back-to-back sweeps per rep, grain 512):\n")
	tPool := timeIt(func() {
		for r := 0; r < reps; r++ {
			for s := 0; s < 4; s++ {
				parallel.ForGrained(n, 512, body)
			}
		}
	})
	tSpawn := timeIt(func() {
		for r := 0; r < reps; r++ {
			for s := 0; s < 4; s++ {
				parallel.ForGrainedSpawn(n, 512, body)
			}
		}
	})
	fmt.Printf("%-12s %14s %14s %9.2fx\n", "rounds", secs(tPool), secs(tSpawn), float64(tPool)/float64(tSpawn))

	// Skewed load: chunk 0 carries 64x the work; the steal counter shows
	// the other participants draining the straggler's range.
	skewed := func(lo, hi int) {
		work := 1
		if lo == 0 {
			work = 64
		}
		s := uint32(0)
		for w := 0; w < work; w++ {
			for i := lo; i < hi; i++ {
				s += uint32(i)
			}
		}
		data[lo] = s
	}
	before := parallel.PoolStats()
	tSkew := timeIt(func() {
		for r := 0; r < reps; r++ {
			parallel.ForGrained(n, 2048, skewed)
		}
	})
	after := parallel.PoolStats()
	fmt.Printf("\nskewed load (chunk 0 = 64x): %s\n", secs(tSkew))
	fmt.Printf("pool deltas: calls=%d sequential=%d chunks=%d steals=%d wakes=%d parks=%d\n",
		after.Calls-before.Calls, after.Sequential-before.Sequential,
		after.Chunks-before.Chunks, after.Steals-before.Steals,
		after.Wakes-before.Wakes, after.Parks-before.Parks)
}

func forestOverhead() {
	names, graphs := panel()
	solver := connectit.MustCompile(connectit.DefaultConfig())
	fmt.Printf("%-8s %14s %14s %10s\n", "Graph", "CC(s)", "SF(s)", "Overhead")
	var overheads []float64
	for _, n := range names {
		g := graphs[n]
		tCC := timeIt(func() { _, _ = solver.ComponentsOn(g) })
		tSF := timeIt(func() {
			if _, err := solver.SpanningForest(g); err != nil {
				log.Fatal(err)
			}
		})
		ov := float64(tSF)/float64(tCC) - 1
		overheads = append(overheads, ov)
		fmt.Printf("%-8s %14s %14s %9.1f%%\n", n, secs(tCC), secs(tSF), ov*100)
	}
	var sum float64
	for _, o := range overheads {
		sum += o
	}
	fmt.Printf("average overhead: %.1f%% (paper: 23.7%%)\n", sum/float64(len(overheads))*100)
}
