package connectit

import (
	"context"
	"time"

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
type ServerOptions = server.Options

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

// NewServer compiles opts.Spec, opens a Stream over opts.NumVertices
// vertices, recovers durable state from opts.WALDir when set, and returns
// the service ready for Start. The caller owns shutdown via Server.Close.
func NewServer(opts ServerOptions) (*Server, error) { return server.New(opts) }

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
