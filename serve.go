package connectit

import (
	"context"
	"time"

	"connectit/internal/ingest"
	"connectit/internal/server"
)

// Server is the connectivity-as-a-service surface: an HTTP+JSON API over a
// Stream with group-committed write-ahead durability, snapshot compaction,
// replay-on-boot recovery, and a /metrics endpoint in the Prometheus text
// format (DESIGN.md §11). Build one with NewServer or run one to completion
// with Serve.
type Server = server.Server

// ServerOptions configures NewServer/Serve. The zero value (plus a vertex
// count) serves the default configuration on :8080 without durability.
type ServerOptions struct {
	// Addr is the HTTP listen address. Default ":8080".
	Addr string
	// IngestAddr, when non-empty, additionally serves the persistent
	// binary TCP ingest protocol there (DESIGN.md §13); connect with
	// DialIngest.
	IngestAddr string
	// NumVertices is the vertex universe size. Required.
	NumVertices int
	// Spec selects the algorithm ("<sampling>;<algorithm>" as accepted by
	// ParseConfig); empty selects DefaultConfig.
	Spec string
	// Stream tunes the ingest engine (sharding, epoch size, coalescing).
	Stream StreamOptions
	// WALDir enables write-ahead durability and recovery; empty runs the
	// service purely in memory.
	WALDir string
	// SnapshotInterval is the WAL compaction period (default 5m; negative
	// disables periodic snapshots).
	SnapshotInterval time.Duration
	// MaxPendingEpochs is the backpressure bound: updates receive 429
	// while more sealed epochs than this await apply (default 64).
	MaxPendingEpochs int
	// SegmentBytes is the WAL segment rotation threshold.
	SegmentBytes int
	// NoSync skips the per-group fsync, trading the durability of groups
	// not yet synced for throughput on slow disks.
	NoSync bool
	// AuthToken, when non-empty, gates every mutating HTTP endpoint behind
	// `Authorization: Bearer <token>`; reads, health, and metrics stay
	// open. Mismatches are answered 401 and counted in
	// connectit_http_unauthorized_total.
	AuthToken string
	// DegradedPolicy selects what a wedged WAL does to the service:
	// DegradeFailWrites (default) keeps reads serving while writes 503 and
	// a background probe retries recovery; DegradeCrash exits the process
	// for supervisor-managed restarts.
	DegradedPolicy DegradedPolicy
	// ProbeInterval is the degraded-mode recovery probe period (default
	// 1s); it also sets the Retry-After hint on refused writes.
	ProbeInterval time.Duration
	// FaultSpec arms the deterministic fault-injection harness
	// (internal/fault), e.g. "wal.sync:at=3:err=EIO;conn.write:after=10:p=0.1:reset".
	// Empty (the default, and the only sane production setting) injects
	// nothing.
	FaultSpec string
	// ReadHeaderTimeout, ReadTimeout, and IdleTimeout harden the HTTP
	// listener (defaults 10s, 2m, 2m; negative disables one).
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	IdleTimeout       time.Duration
	// MaxHeaderBytes caps a request's header section (default 1 MiB).
	MaxHeaderBytes int
}

// DegradedPolicy selects the service's response to a wedged WAL; see
// ServerOptions.DegradedPolicy.
type DegradedPolicy = server.DegradedPolicy

const (
	// DegradeFailWrites keeps the process alive on a WAL wedge: writes
	// 503 with Retry-After, wait-free reads keep serving, and a
	// background probe retries recovery.
	DegradeFailWrites = server.DegradeFailWrites
	// DegradeCrash exits the process on the first wedge, for deployments
	// where a supervisor restart onto healthy storage is the recovery
	// path.
	DegradeCrash = server.DegradeCrash
)

// NewServer compiles the configuration, opens a Stream over
// opts.NumVertices vertices, recovers durable state from opts.WALDir when
// set, and returns the service ready for Start. The caller owns shutdown
// via Server.Close.
func NewServer(opts ServerOptions) (*Server, error) {
	cfg := DefaultConfig()
	if opts.Spec != "" {
		var err error
		cfg, err = ParseConfig(opts.Spec)
		if err != nil {
			return nil, err
		}
	}
	st, err := NewStream(opts.NumVertices, cfg, opts.Stream)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(st, server.Options{
		Addr:              opts.Addr,
		IngestAddr:        opts.IngestAddr,
		WALDir:            opts.WALDir,
		MaxPendingEpochs:  opts.MaxPendingEpochs,
		SnapshotInterval:  opts.SnapshotInterval,
		SegmentBytes:      opts.SegmentBytes,
		NoSync:            opts.NoSync,
		AuthToken:         opts.AuthToken,
		DegradedPolicy:    opts.DegradedPolicy,
		ProbeInterval:     opts.ProbeInterval,
		FaultSpec:         opts.FaultSpec,
		ReadHeaderTimeout: opts.ReadHeaderTimeout,
		ReadTimeout:       opts.ReadTimeout,
		IdleTimeout:       opts.IdleTimeout,
		MaxHeaderBytes:    opts.MaxHeaderBytes,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	return srv, nil
}

// Serve builds a server from opts, listens, and blocks until ctx is
// cancelled, then shuts down gracefully — draining in-flight group commits,
// writing a final snapshot, and sealing the log. This is the one-call
// entry point behind `connectit -serve`.
func Serve(ctx context.Context, opts ServerOptions) error {
	srv, err := NewServer(opts)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Close(shutdownCtx)
		return err
	}
	<-ctx.Done()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Close(shutdownCtx)
}

// Guard against the aliases drifting: the ingest engine must keep exposing
// the server-grade lifecycle surface the service depends on.
var _ = []any{(*ingest.Stream).Close, (*ingest.Stream).UpdateBatch, (*ingest.Stream).PendingEpochs}
