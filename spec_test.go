package connectit

// Tests for the canonical spec-string language: every registry algorithm's
// Name must parse back to an equivalent Algorithm (crossed with all four
// sampling modes via Config.Name), short-form specs must normalize, and
// malformed or paper-excluded specs must be rejected with the right
// sentinel errors.

import (
	"errors"
	"testing"

	"connectit/internal/core"
)

func allSamplingModes() []core.SamplingMode {
	return []core.SamplingMode{NoSampling, KOutSampling, BFSSampling, LDDSampling}
}

func TestSpecRoundTripAllAlgorithms(t *testing.T) {
	algos := Algorithms()
	if len(algos) != 55 {
		t.Fatalf("algorithms = %d, want 55 (36 UF + SV + 16 LT + Stergiou + LP)", len(algos))
	}
	for _, a := range algos {
		got, err := ParseAlgorithm(a.Name())
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", a.Name(), err)
		}
		if got != a {
			t.Fatalf("ParseAlgorithm(%q) = %+v, want %+v", a.Name(), got, a)
		}
		for _, mode := range allSamplingModes() {
			cfg := Config{Sampling: mode, Algorithm: a}
			parsed, err := ParseConfig(cfg.Name())
			if err != nil {
				t.Fatalf("ParseConfig(%q): %v", cfg.Name(), err)
			}
			if parsed.Sampling != mode || parsed.Algorithm != a {
				t.Fatalf("ParseConfig(%q) = {%v %+v}, want {%v %+v}",
					cfg.Name(), parsed.Sampling, parsed.Algorithm, mode, a)
			}
		}
	}
}

func TestSpecShortFormsNormalize(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"uf;rem-cas;naive;split-one", "Union-Rem-CAS;SplitOne;FindNaive"},
		{"UF; Rem-CAS; Naive; Split-One", "Union-Rem-CAS;SplitOne;FindNaive"},
		{"union-find;rem-lock;halve;halve-one", "Union-Rem-Lock;HalveOne;FindHalve"},
		{"uf;async;compress", "Union-Async;FindCompress"},
		{"uf;jtb;two-try", "Union-JTB;FindTwoTrySplit"},
		{"lt;crfa", "Liu-Tarjan;CRFA"},
		{"liu-tarjan;prf", "Liu-Tarjan;PRF"},
		{"sv", "shiloach-vishkin"},
		{"stergiou", "stergiou"},
		{"lp", "label-propagation"},
		{"label-propagation", "label-propagation"},
	}
	for _, c := range cases {
		a, err := ParseAlgorithm(c.spec)
		if err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", c.spec, err)
			continue
		}
		if a.Name() != c.want {
			t.Errorf("ParseAlgorithm(%q).Name() = %q, want %q", c.spec, a.Name(), c.want)
		}
	}
}

func TestSpecRejectsMalformed(t *testing.T) {
	for _, spec := range []string{
		"",
		"zzz",
		"uf",
		"uf;bogus",
		"uf;rem-cas;bogus",
		"uf;rem-cas;naive;split-one;naive", // duplicate find rule
		"lt",
		"lt;CRFA;extra",
		"sv;extra",
		"stergiou;extra",
	} {
		_, err := ParseAlgorithm(spec)
		if err == nil {
			t.Errorf("ParseAlgorithm(%q) should fail", spec)
			continue
		}
		if !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseAlgorithm(%q) = %v, want ErrBadSpec", spec, err)
		}
	}
	if _, err := ParseConfig("warp;sv"); !errors.Is(err, ErrBadSpec) {
		t.Errorf("ParseConfig with bad sampling = %v, want ErrBadSpec", err)
	}
	if _, err := ParseConfig("kout"); !errors.Is(err, ErrBadSpec) {
		t.Errorf("ParseConfig without algorithm = %v, want ErrBadSpec", err)
	}
}

func TestSpecRejectsExcludedCombinations(t *testing.T) {
	// Rem + SpliceAtomic + FindCompress is proven incorrect (§B.2.3).
	for _, spec := range []string{
		"uf;rem-cas;compress;splice",
		"uf;rem-lock;compress;splice",
		"uf;async;two-try", // FindTwoTrySplit requires Union-JTB
		"uf;jtb;halve",     // JTB supports FindNaive/FindTwoTrySplit only
		"lt;XYZ",           // not one of the paper's sixteen variants
	} {
		_, err := ParseAlgorithm(spec)
		if !errors.Is(err, ErrUnsupported) {
			t.Errorf("ParseAlgorithm(%q) = %v, want ErrUnsupported", spec, err)
		}
	}
}

func TestCompileRejectsExcludedCombinations(t *testing.T) {
	g := NewGrid2D(4, 4)

	// Invalid union-find combinations fail at Compile, not mid-run.
	if _, err := Compile(Config{Algorithm: UnionFindAlgorithm(UnionRemCAS, FindCompress, SpliceAtomic)}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Compile(Rem+Splice+Compress) = %v, want ErrUnsupported", err)
	}
	// A Liu-Tarjan variant outside the paper's sixteen fails at Compile
	// (the zero variant is "CUS": Connect without Alter is incorrect).
	if _, err := Compile(Config{Algorithm: Algorithm{Kind: core.FinishLiuTarjan}}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Compile(LT zero variant) = %v, want ErrUnsupported", err)
	}

	// Rem+SpliceAtomic compiles for connectivity but its spanning-forest
	// exclusion is captured at compile time and reported via capabilities.
	s := MustCompile(Config{Algorithm: MustParseAlgorithm("uf;rem-cas;naive;splice")})
	caps := s.Capabilities()
	if caps.SpanningForest {
		t.Fatal("Rem+SpliceAtomic must not support spanning forest")
	}
	if !caps.Streaming || caps.StreamType != TypePhased {
		t.Fatalf("Rem+SpliceAtomic capabilities = %+v, want phased streaming", caps)
	}
	if _, err := s.SpanningForest(g); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("SpanningForest = %v, want ErrUnsupported", err)
	}

	// Non-RootUp Liu-Tarjan variants neither stream nor build forests.
	s = MustCompile(Config{Algorithm: MustParseAlgorithm("lt;PUS")})
	caps = s.Capabilities()
	if caps.Streaming || caps.SpanningForest {
		t.Fatalf("lt;PUS capabilities = %+v, want neither forest nor streaming", caps)
	}
	if _, err := s.Stream(8); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Stream(lt;PUS) = %v, want ErrUnsupported", err)
	}

	// RootUp Liu-Tarjan supports both, streaming synchronously.
	s = MustCompile(Config{Algorithm: MustParseAlgorithm("lt;CRFA")})
	caps = s.Capabilities()
	if !caps.SpanningForest || !caps.Streaming || caps.StreamType != TypeSynchronous {
		t.Fatalf("lt;CRFA capabilities = %+v, want forest + synchronous streaming", caps)
	}
}
