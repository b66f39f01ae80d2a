package connectit_test

import (
	"fmt"

	"connectit"
)

// The compiled workflow: validate a spec-selected configuration once, then
// run it repeatedly; the solver reuses its internal scratch across runs.
func ExampleCompile() {
	cfg, err := connectit.ParseConfig("kout;uf;rem-cas;naive;split-one")
	if err != nil {
		panic(err)
	}
	solver, err := connectit.Compile(cfg)
	if err != nil {
		panic(err)
	}
	g := connectit.BuildGraph(5, []connectit.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4},
	})
	q, err := solver.Query(g)
	if err != nil {
		panic(err)
	}
	comps, _ := q.NumComponents()
	fmt.Println(solver.Name())
	fmt.Println(comps)
	fmt.Println(solver.Capabilities().SpanningForest)
	// Output:
	// kout;Union-Rem-CAS;SplitOne;FindNaive
	// 2
	// true
}

// The minimal workflow: build a graph, compute components with the paper's
// recommended default algorithm (k-out sampling + Union-Rem-CAS).
func ExampleConnectivity() {
	g := connectit.BuildGraph(5, []connectit.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4},
	})
	labels, err := connectit.Connectivity(g, connectit.DefaultConfig())
	if err != nil {
		panic(err)
	}
	comps, _ := connectit.QueryLabels(labels).NumComponents()
	fmt.Println(comps)
	fmt.Println(labels[0] == labels[2])
	fmt.Println(labels[0] == labels[3])
	// Output:
	// 2
	// true
	// false
}

// Selecting a specific algorithm combination: LDD sampling finished by the
// Liu-Tarjan CRFA variant.
func ExampleLiuTarjanAlgorithm() {
	g := connectit.BuildGraph(4, []connectit.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	crfa, err := connectit.LiuTarjanAlgorithm("CRFA")
	if err != nil {
		panic(err)
	}
	labels, err := connectit.Connectivity(g, connectit.Config{
		Sampling:  connectit.LDDSampling,
		Algorithm: crfa,
	})
	if err != nil {
		panic(err)
	}
	comps, _ := connectit.QueryLabels(labels).NumComponents()
	fmt.Println(comps)
	// Output:
	// 2
}

// The representation layer: the same compiled solver runs directly on the
// byte-compressed backend (or on a representation picked at load time via
// ComponentsOn) — no flat CSR is materialized.
func ExampleSolver_ComponentsOn() {
	g := connectit.BuildGraph(5, []connectit.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4},
	})
	compressed := connectit.Compress(g)
	solver, err := connectit.Compile(connectit.DefaultConfig())
	if err != nil {
		panic(err)
	}
	labels, err := solver.ComponentsOn(compressed)
	if err != nil {
		panic(err)
	}
	comps, _ := connectit.QueryLabels(labels).NumComponents()
	fmt.Println(comps)
	fmt.Println(compressed.SizeBytes() > 0)
	// Output:
	// 2
	// true
}

// Spanning forest via a root-based algorithm: |F| = n - #components.
func ExampleSpanningForest() {
	g := connectit.BuildGraph(5, []connectit.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, // a triangle (one redundant edge)
		{U: 3, V: 4},
	})
	forest, err := connectit.SpanningForest(g, connectit.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fmt.Println(len(forest))
	// Output:
	// 3
}

// The composable query surface over a static run: one handle answers
// counting, size, histogram, and forest-path queries.
func ExampleSolver_Query() {
	g := connectit.BuildGraph(5, []connectit.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4},
	})
	solver, err := connectit.Compile(connectit.DefaultConfig())
	if err != nil {
		panic(err)
	}
	q, err := solver.Query(g)
	if err != nil {
		panic(err)
	}
	comps, _ := q.NumComponents()
	size, _ := q.ComponentSize(0)
	path, ok, _ := q.PathBetween(0, 2)
	fmt.Println(comps)
	fmt.Println(size)
	fmt.Println(ok, len(path))
	// Output:
	// 2
	// 3
	// true 2
}

// Querying a live stream: the engine pulls the spanning forest the stream
// grows as updates arrive, so answers always reflect every applied update.
func ExampleStream_Query() {
	st, err := connectit.NewStream(4, connectit.DefaultConfig())
	if err != nil {
		panic(err)
	}
	q, err := st.Query()
	if err != nil {
		panic(err)
	}
	if err := st.UpdateBatch([]connectit.Edge{{U: 0, V: 1}, {U: 1, V: 2}}); err != nil {
		panic(err)
	}
	st.Sync() // barrier: make the batch visible before asking
	path, ok, _ := q.PathBetween(0, 2)
	comps, _ := q.NumComponents()
	fmt.Println(ok, len(path))
	fmt.Println(comps)
	st.Close()
	_, _, err = q.PathBetween(0, 2)
	fmt.Println(err == connectit.ErrStreamClosed)
	// Output:
	// true 2
	// 2
	// true
}

// Batch-incremental connectivity (Algorithm 3): insertions and queries in
// one batch.
func ExampleStream_ProcessBatch() {
	st, err := connectit.NewStream(4, connectit.DefaultConfig())
	if err != nil {
		panic(err)
	}
	answers, err := st.ProcessBatch(
		[]connectit.Edge{{U: 0, V: 1}, {U: 1, V: 2}},
		[][2]uint32{{2, 3}},
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(answers[0])
	fmt.Println(st.Connected(0, 2))
	fmt.Println(st.NumComponents())
	// Output:
	// false
	// true <nil>
	// 2
}
