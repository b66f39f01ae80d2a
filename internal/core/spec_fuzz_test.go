package core

import "testing"

// FuzzParseConfig checks the spec-string parser on arbitrary input: it
// never panics, an accepted spec's canonical Name parses back to the same
// Name (the canonical form is a fixpoint), and Compile of an accepted
// Config returns exactly one of a value and an error.
func FuzzParseConfig(f *testing.F) {
	// The accepted, short-form and rejected algorithm specs of the root
	// package's spec tests, each bare and behind a sampling mode.
	for _, spec := range []string{
		"uf;rem-cas;naive;split-one",
		"UF; Rem-CAS; Naive; Split-One",
		"union-find;rem-lock;halve;halve-one",
		"uf;async;compress",
		"uf;jtb;two-try",
		"lt;crfa",
		"liu-tarjan;prf",
		"sv",
		"stergiou",
		"lp",
		"label-propagation",
		"",
		"zzz",
		"uf",
		"uf;bogus",
		"uf;rem-cas;bogus",
		"uf;rem-cas;naive;split-one;naive",
		"lt",
		"lt;CRFA;extra",
		"sv;extra",
		"stergiou;extra",
		"uf;rem-cas;compress;splice",
		"uf;rem-lock;compress;splice",
		"uf;async;two-try",
		"uf;jtb;halve",
		"lt;XYZ",
	} {
		f.Add(spec)
		f.Add("kout;" + spec)
	}
	f.Add("warp;sv")
	f.Add("kout")
	for _, a := range Algorithms() {
		f.Add("none;" + a.Name())
	}

	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseConfig(spec)
		if err != nil {
			return
		}
		name := c.Name()
		again, err := ParseConfig(name)
		if err != nil {
			t.Fatalf("ParseConfig(%q) accepted, but its Name %q does not parse: %v", spec, name, err)
		}
		if again.Name() != name {
			t.Fatalf("ParseConfig(%q).Name() = %q, re-parsed Name = %q", spec, name, again.Name())
		}
		compiled, err := Compile(c)
		if (compiled == nil) == (err == nil) {
			t.Fatalf("Compile(%q) = %v, %v: want exactly one of a value and an error", name, compiled, err)
		}
	})
}
