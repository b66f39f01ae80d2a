package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// workloadNames are fixed: later issues cite them.
var workloadNames = []string{
	"static_rmat_csr", "static_grid_csr", "static_rmat_cbin", "stream_mix_90_10", "serve_mixed",
}

// benchSpec mirrors BENCHMARK.json, the one place metric names, units and
// regression bounds are fixed. The program reads its metric lists from it,
// so a name the program measures but the file does not list (or the other
// way round) fails the run.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
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

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// lists reports whether name is a per-layer (layer true) or end-to-end
// metric of the spec.
func (s *benchSpec) lists(name string, layer bool) bool {
	list := s.EndToEnd
	if layer {
		list = s.PerLayer
	}
	for _, m := range list {
		if m.Name == name {
			return true
		}
	}
	return false
}

func (s *benchSpec) endToEnd(name string) *metricSpec {
	for i := range s.EndToEnd {
		if s.EndToEnd[i].Name == name {
			return &s.EndToEnd[i]
		}
	}
	return nil
}
