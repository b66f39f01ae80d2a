package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// withServeFlags runs fn with -serve set and the given overrides applied,
// restoring every touched flag afterwards so tests stay independent.
func withServeFlags(t *testing.T, overrides func(), fn func() error) error {
	t.Helper()
	old := struct {
		serve    bool
		addr     string
		wal      string
		snap     time.Duration
		pending  int
		stream   bool
		forest   bool
		convert  string
		probe    time.Duration
		degraded string
	}{*serve, *addr, *walDir, *snapInterval, *maxPending, *stream, *forest, *convert, *probeInterval, *degradedMode}
	t.Cleanup(func() {
		*serve, *addr, *walDir, *snapInterval, *maxPending, *stream, *forest, *convert =
			old.serve, old.addr, old.wal, old.snap, old.pending, old.stream, old.forest, old.convert
		*probeInterval, *degradedMode = old.probe, old.degraded
	})
	*serve = true
	if overrides != nil {
		overrides()
	}
	return fn()
}

func TestValidateServeFlags(t *testing.T) {
	cases := []struct {
		name      string
		overrides func()
		wantErr   string
	}{
		{"defaults ok", nil, ""},
		{"valid wal dir", func() { *walDir = filepath.Join(t.TempDir(), "wal") }, ""},
		{"snapshot disabled", func() { *snapInterval = -1 }, ""},
		{"bad addr", func() { *addr = "not an address::::" }, "-addr"},
		{"snapshot too small", func() { *snapInterval = 10 * time.Millisecond }, "-snapshot-interval"},
		{"snapshot too large", func() { *snapInterval = 48 * time.Hour }, "-snapshot-interval"},
		{"pending zero", func() { *maxPending = 0 }, "-max-pending"},
		{"pending huge", func() { *maxPending = 1 << 24 }, "-max-pending"},
		{"serve and stream", func() { *stream = true }, "mutually exclusive"},
		{"serve and forest", func() { *forest = true }, "mutually exclusive"},
		{"serve and convert", func() { *convert = "x.cbin" }, "mutually exclusive"},
		{"unwritable wal dir", func() { *walDir = "/proc/definitely/not/writable" }, "-wal-dir"},
		{"degraded policy crash ok", func() { *degradedMode = "crash" }, ""},
		{"probe too small", func() { *probeInterval = time.Millisecond }, "-probe-interval"},
		{"probe too large", func() { *probeInterval = time.Hour }, "-probe-interval"},
		{"bad degraded policy", func() { *degradedMode = "shrug" }, "-degraded-policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := withServeFlags(t, tc.overrides, validateFlags)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags: unexpected error %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateFlags: err = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateFlagsBaseline(t *testing.T) {
	// The pre-existing bounds still hold with the serve flags present.
	oldScale := *scale
	t.Cleanup(func() { *scale = oldScale })
	*scale = 99
	if err := validateFlags(); err == nil || !strings.Contains(err.Error(), "-scale") {
		t.Fatalf("validateFlags with -scale 99: %v", err)
	}
}
