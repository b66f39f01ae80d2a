// Quickstart: build a small graph, compile a solver, compute connected
// components, and answer connectivity questions — the minimal ConnectIt
// workflow.
package main

import (
	"fmt"

	"connectit"
)

func main() {
	// A graph with two components: {0,1,2} and {3,4}.
	g := connectit.BuildGraph(5, []connectit.Edge{
		{U: 0, V: 1},
		{U: 1, V: 2},
		{U: 3, V: 4},
	})

	// DefaultConfig is the paper's recommended robust combination: k-out
	// sampling finished by Union-Rem-CAS with SplitAtomicOne. Compile
	// validates it once and returns a reusable solver.
	solver, err := connectit.Compile(connectit.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fmt.Println("algorithm:", solver.Name())

	// Query wraps a run in the composable query surface: counting, size,
	// histogram, and path queries from one handle.
	q, err := solver.Query(g)
	if err != nil {
		panic(err)
	}
	labels, _ := q.Labels()
	fmt.Println("labels:", labels)
	comps, _ := q.NumComponents()
	fmt.Println("components:", comps)
	c02, _ := q.Connected(0, 2)
	c04, _ := q.Connected(0, 4)
	fmt.Println("0 and 2 connected:", c02)
	fmt.Println("0 and 4 connected:", c04)
	path, _, _ := q.PathBetween(0, 2)
	fmt.Println("path 0 -> 2 through the spanning forest:", path)

	// Any of the framework's several hundred algorithm combinations is one
	// spec string away; for example Liu-Tarjan CRFA with LDD sampling:
	cfg, err := connectit.ParseConfig("ldd;lt;CRFA")
	if err != nil {
		panic(err)
	}
	crfa, err := connectit.Compile(cfg)
	if err != nil {
		panic(err)
	}
	qCRFA, err := crfa.Query(g)
	if err != nil {
		panic(err)
	}
	crfaComps, _ := qCRFA.NumComponents()
	fmt.Println("CRFA agrees:", crfaComps == 2)

	// Every algorithm also runs directly on the byte-compressed backend —
	// about half the resident bytes on power-law graphs, no flat CSR ever
	// materialized. (Compress one in memory, or LoadCBIN a .cbin file to
	// memory-map a huge graph in O(1).)
	// Solver.Query computes the spanning forest off the encoding too, so
	// the compressed handle answers path queries like the CSR one.
	compressed := connectit.Compress(g)
	qc, err := solver.Query(compressed)
	if err != nil {
		panic(err)
	}
	ccomps, _ := qc.NumComponents()
	fmt.Println("compressed agrees:", ccomps == 2)
	cpath, _, _ := qc.PathBetween(0, 2)
	fmt.Println("compressed path 0 -> 2:", cpath)
}
