package core

import (
	"connectit/internal/graph"
)

// SpanningForest runs the ConnectIt spanning forest meta-algorithm
// (Algorithm 2): the sampling phase emits the forest edges inducing its
// partial labeling (Definition B.2), and a root-based finish phase records
// one witness edge per hook (Theorem 6). Supported finish algorithms are
// every union-find variant except Rem+SpliceAtomic, Shiloach-Vishkin, and
// the RootUp Liu-Tarjan variants; other combinations return ErrUnsupported.
// It is a convenience wrapper that compiles cfg and runs it once; repeated
// runs should Compile once and call Compiled.SpanningForest.
func SpanningForest(g graph.Rep, cfg Config) ([]graph.Edge, error) {
	c, err := Compile(cfg)
	if err != nil {
		return nil, err
	}
	return c.SpanningForest(g)
}
