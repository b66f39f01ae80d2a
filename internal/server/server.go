// Package server wraps a core.Stream as a network service: an
// HTTP+JSON surface over the stream, a self-clocking batcher that group-
// commits accepted updates through a write-ahead log before they enter the
// epoch pipeline, snapshot-based log compaction, replay-on-boot recovery,
// and a Prometheus-text metrics registry (DESIGN.md §11).
//
// The transactional ingest path (POST /v1/update → WAL → epoch pipeline)
// and the analytical query path (GET /v1/connected, wait-free against the
// applied state) meet only at the engine's own synchronization, so each
// side keeps its own batching and resource accounting; backpressure (429)
// triggers when the apply pipeline's in-flight epoch count exceeds a bound
// instead of letting queue depth grow unboundedly.
package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"connectit/internal/core"
	"connectit/internal/fault"
	"connectit/internal/graph"
	"connectit/internal/parallel"
	"connectit/internal/query"
	"connectit/internal/wal"
	"connectit/internal/wire"
)

// Options configures a Server. The zero value (plus a vertex count) serves
// the default configuration on :8080 without durability.
type Options struct {
	// Addr is the listen address. Default ":8080".
	Addr string
	// IngestAddr, when non-empty, additionally serves the persistent
	// binary TCP ingest protocol (DESIGN.md §13) on that address:
	// length-prefixed wire frames, pipelined, with batched LSN acks.
	IngestAddr string
	// NumVertices is the vertex universe size. Required.
	NumVertices int
	// Spec selects the algorithm ("<sampling>;<algorithm>" as accepted by
	// core.ParseConfig); empty selects core.DefaultConfig.
	Spec string
	// Stream tunes the stream's sharding and epoch size.
	Stream core.StreamOptions
	// WALDir enables durability: accepted update batches append to a
	// write-ahead log there before entering the pipeline, and boot replays
	// snapshot+tail. Empty disables durability (a pure in-memory service).
	WALDir string
	// MaxPendingEpochs is the backpressure bound: update requests are
	// rejected with 429 while more sealed epochs than this await apply.
	// Default 64.
	MaxPendingEpochs int
	// SnapshotInterval is the period of the compaction loop that persists
	// the stream's spanning forest as a WAL snapshot and prunes covered WAL
	// segments. Default 5m; negative disables periodic snapshots.
	SnapshotInterval time.Duration
	// SegmentBytes is the WAL segment rotation threshold (wal.Options).
	SegmentBytes int
	// NoSync skips per-append fsync in the WAL (wal.Options).
	NoSync bool

	// ProbeInterval is the degraded-mode recovery probe period: how often a
	// wedged WAL is re-tried (and the Retry-After hint on refused writes).
	// Default 1s.
	ProbeInterval time.Duration
	// DegradedPolicy selects the response to a WAL wedge: DegradeFailWrites
	// (default) serves reads and 503s writes while a background probe
	// retries recovery; DegradeCrash exits the process for an external
	// supervisor to restart.
	DegradedPolicy DegradedPolicy
	// AuthToken, when non-empty, locks the mutating endpoints: POST
	// /v1/update requires "Authorization: Bearer <token>". Reads, health,
	// and metrics stay open.
	AuthToken string
	// FaultSpec arms a deterministic fault-injection schedule
	// (fault.ParseSchedule grammar) over the WAL's filesystem operations
	// and the TCP ingest connections. Empty — the production value — arms
	// nothing and costs nothing. Chaos tests and CI set it to prove the
	// durability and degraded-mode contracts.
	FaultSpec string

	// ReadHeaderTimeout, ReadTimeout, and IdleTimeout bound the HTTP
	// server's exposure to slow or stalled clients (slowloris); zero
	// selects the defaults (10s, 2m, 2m), negative disables one.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	IdleTimeout       time.Duration
	// MaxHeaderBytes bounds a request's header section. Default 1 MiB.
	MaxHeaderBytes int
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = ":8080"
	}
	if o.MaxPendingEpochs <= 0 {
		o.MaxPendingEpochs = 64
	}
	if o.SnapshotInterval == 0 {
		o.SnapshotInterval = 5 * time.Minute
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.DegradedPolicy == "" {
		o.DegradedPolicy = DegradeFailWrites
	}
	if o.ReadHeaderTimeout == 0 {
		o.ReadHeaderTimeout = 10 * time.Second
	}
	if o.ReadTimeout == 0 {
		o.ReadTimeout = 2 * time.Minute
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	if o.MaxHeaderBytes == 0 {
		o.MaxHeaderBytes = 1 << 20
	}
	return o
}

// Server is the connectivity service: it owns the batcher, the WAL, the
// metrics registry, and the HTTP surface over one core.Stream. Build one
// with New (which runs recovery), then Start/Close it, or mount Handler
// into an existing mux.
type Server struct {
	st  *core.Stream
	log *wal.Log // nil without durability
	bat *batcher
	opt Options
	reg *Registry
	mux *http.ServeMux

	// q answers forest-backed queries (/v1/path, /v1/component, histogram
	// mode); nil when the stream's algorithm lacks spanning-forest support,
	// with qErr holding the capability verdict for the 501 response.
	q    *query.Engine
	qErr error

	// pending reports the backpressure signal; a field so tests can force
	// the 429 path deterministically.
	pending func() int

	// state is the serving state machine (state.go): serving, degraded
	// (WAL wedged; reads only), or closing.
	state atomic.Int32
	// faults is the parsed Options.FaultSpec schedule, shared by the WAL
	// seam and the TCP conn wrapper so a spec's wal.* and conn.* rules
	// interleave deterministically; nil in production.
	faults *fault.Schedule

	accepted      *Counter
	backpressure  *Counter
	degradedTotal *Counter
	unauthorized  *Counter

	// connectit_ingest_frames_total by transport: one JSON request, one
	// binary HTTP body, or one TCP frame each count as a frame.
	framesJSON   *Counter
	framesBinary *Counter
	framesTCP    *Counter

	httpSrv *http.Server
	ln      net.Listener
	ingest  *ingestListener // nil unless Options.IngestAddr is set
	started time.Time

	stopSnap  chan struct{}
	snapDone  chan struct{}
	stopProbe chan struct{}
	probeDone chan struct{}
	closed    chan struct{}
	closeOnce sync.Once
}

// New compiles opt.Spec and opens a stream over opt.NumVertices vertices,
// then builds the Server over it. When opt.WALDir is set it first recovers:
// the newest snapshot is fed, the WAL tail is replayed, and the stream is
// synced, so the returned server answers from exactly the state every
// previously-acknowledged update implies. The stream is the server's: a
// failed New closes it, and Close closes it.
func New(opt Options) (*Server, error) {
	cfg := core.DefaultConfig()
	if opt.Spec != "" {
		var err error
		if cfg, err = core.ParseConfig(opt.Spec); err != nil {
			return nil, err
		}
	}
	c, err := core.Compile(cfg)
	if err != nil {
		return nil, err
	}
	st, err := c.NewStream(opt.NumVertices, opt.Stream)
	if err != nil {
		return nil, err
	}
	s, err := newServer(st, opt.withDefaults())
	if err != nil {
		st.Close()
		return nil, err
	}
	return s, nil
}

func newServer(st *core.Stream, opt Options) (*Server, error) {
	s := &Server{
		st:        st,
		opt:       opt,
		reg:       NewRegistry(),
		mux:       http.NewServeMux(),
		started:   time.Now(),
		stopSnap:  make(chan struct{}),
		snapDone:  make(chan struct{}),
		stopProbe: make(chan struct{}),
		probeDone: make(chan struct{}),
		closed:    make(chan struct{}),
	}
	s.pending = st.PendingEpochs
	if q, err := st.Query(); err != nil {
		s.qErr = err
	} else {
		s.q = q
	}
	if opt.FaultSpec != "" {
		sched, err := fault.ParseSchedule(opt.FaultSpec)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.faults = sched
	}

	if opt.WALDir != "" {
		l, err := wal.Open(opt.WALDir, wal.Options{
			SegmentBytes: opt.SegmentBytes,
			NoSync:       opt.NoSync,
			FS:           fault.NewFS(nil, s.faults),
		})
		if err != nil {
			return nil, err
		}
		if err := s.recover(l); err != nil {
			l.Close()
			return nil, err
		}
		s.log = l
	}
	s.bat = newBatcher(st, s.log)
	if s.log != nil {
		// A flush whose WAL append wedged the log flips the server into
		// degraded mode right away; the probe loop owns the way back.
		s.bat.onErr = func(error) {
			if werr := s.log.Wedged(); werr != nil {
				s.enterDegraded(werr)
			}
		}
	}
	s.registerMetrics()
	s.routes()

	if s.log != nil && opt.SnapshotInterval > 0 {
		go s.snapshotLoop()
	} else {
		close(s.snapDone)
	}
	if s.log != nil {
		go s.probeLoop()
	} else {
		close(s.probeDone)
	}
	return s, nil
}

// recover rebuilds the stream's state from the newest snapshot plus the
// WAL tail. Unions are idempotent, so the snapshot/tail overlap window is
// harmless; what matters is that nothing acknowledged is missing. Every
// edge is range-checked before it is fed: a log written for a larger
// vertex universe fails the boot instead of panicking inside the stream.
func (s *Server) recover(l *wal.Log) error {
	snapLSN, snapPath, _ := l.LatestSnapshot()
	err := l.ReplaySnapshot(func(edges []graph.Edge) error {
		if err := s.checkRange(edges); err != nil {
			return fmt.Errorf("server: snapshot %s: %w", snapPath, err)
		}
		return s.st.UpdateBatch(edges)
	})
	if err != nil {
		return err
	}
	err = l.Replay(snapLSN, func(lsn uint64, edges []graph.Edge) error {
		if err := s.checkRange(edges); err != nil {
			return fmt.Errorf("server: WAL record at LSN %d: %w", lsn, err)
		}
		return s.st.UpdateBatch(edges)
	})
	if err != nil {
		return err
	}
	s.st.Sync()
	return nil
}

// checkRange rejects a batch holding an endpoint outside the stream's
// vertex universe, naming the first such edge. Every ingest path runs it
// before the WAL append, and recovery before the feed.
func (s *Server) checkRange(edges []graph.Edge) error {
	n := uint32(s.st.Len())
	for _, e := range edges {
		if e.U >= n || e.V >= n {
			return fmt.Errorf("edge {%d, %d} endpoint out of range [0, %d)", e.U, e.V, n)
		}
	}
	return nil
}

// Snapshot persists the stream's spanning forest as a WAL snapshot
// covering every record appended so far and compacts the log. It is called
// periodically by the snapshot loop and once more at Close, before the
// stream closes; exposed for operational use (tests, manual compaction).
func (s *Server) Snapshot() error {
	if s.log == nil {
		return errors.New("server: snapshots require a WAL")
	}
	// Fence a cut at which appended == fed: flushes append and feed under
	// the same critical section, so with flushes excluded the log's LSN is
	// a consistent tag for "everything the stream has been handed".
	var lsn uint64
	s.bat.fence(func() { lsn = s.log.LSN() })
	edges, err := s.forest()
	if err != nil {
		return err
	}
	return s.log.CommitSnapshot(lsn, edges)
}

// forest returns n − #components edges whose connectivity is the stream's:
// the live spanning forest — real ingested edges, so the rebooted stream
// re-captures a forest of them — or, for Type iii, which captures none, a
// star from each vertex to its component label. Edges fed after the fenced
// LSN may be included; they are real and their replay is idempotent.
func (s *Server) forest() ([]graph.Edge, error) {
	if s.q != nil {
		s.st.Sync() // every fed update becomes applied, its forest edge pullable
		return s.q.SpanningForest()
	}
	labels := s.st.Labels()
	edges := make([]graph.Edge, 0, len(labels))
	for v, l := range labels {
		if uint32(v) != l {
			edges = append(edges, graph.Edge{U: uint32(v), V: l})
		}
	}
	return edges, nil
}

func (s *Server) snapshotLoop() {
	defer close(s.snapDone)
	t := time.NewTicker(s.opt.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// Best effort: a failed periodic snapshot leaves the previous
			// one installed and the log un-compacted; the next tick (or
			// Close) retries.
			_ = s.Snapshot()
		case <-s.stopSnap:
			return
		}
	}
}

// Handler returns the service's HTTP handler (for embedding into an
// existing server or httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on Options.Addr (and Options.IngestAddr when set) and
// serves in the background. Use Addr/IngestAddr for the bound addresses
// (useful with ":0") and Close to shut down.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.opt.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	// Bounded exposure to slow clients: header and whole-request read
	// deadlines, idle keep-alive reaping, and a header-size cap. A negative
	// option disables the corresponding limit.
	clamp := func(d time.Duration) time.Duration {
		if d < 0 {
			return 0
		}
		return d
	}
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: clamp(s.opt.ReadHeaderTimeout),
		ReadTimeout:       clamp(s.opt.ReadTimeout),
		IdleTimeout:       clamp(s.opt.IdleTimeout),
		MaxHeaderBytes:    s.opt.MaxHeaderBytes,
	}
	go s.httpSrv.Serve(ln)
	if s.opt.IngestAddr != "" {
		il, err := newIngestListener(s, s.opt.IngestAddr)
		if err != nil {
			s.httpSrv.Close()
			return err
		}
		s.ingest = il
	}
	return nil
}

// Addr returns the bound listen address after Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.opt.Addr
	}
	return s.ln.Addr().String()
}

// IngestAddr returns the bound binary ingest address after Start, or ""
// when the TCP ingest listener is not configured.
func (s *Server) IngestAddr() string {
	if s.ingest == nil {
		return ""
	}
	return s.ingest.ln.Addr().String()
}

// Close shuts the service down gracefully: stop accepting HTTP traffic,
// drain the batcher (every acknowledged update flushed through WAL and
// pipeline), write a final snapshot, close the stream (state final), and
// seal the log. The snapshot precedes the stream's close because a closed
// stream's query engine answers ErrClosed; once the batcher has drained
// nothing feeds the stream, so the snapshot already sees the final state.
// Idempotent; later calls (including concurrent ones) return nil once the
// first shutdown completes.
func (s *Server) Close(ctx context.Context) error {
	var first error
	// sync.Once rather than a select/default on s.closed: two concurrent
	// Closes could both take the default branch and double-close the channel.
	s.closeOnce.Do(func() {
		s.setClosing()
		close(s.closed)
		close(s.stopProbe)
		<-s.probeDone
		if s.httpSrv != nil {
			if err := s.httpSrv.Shutdown(ctx); err != nil && first == nil {
				first = err
			}
		}
		if s.ingest != nil {
			s.ingest.Close()
		}
		close(s.stopSnap)
		<-s.snapDone
		s.bat.Close()
		if s.log != nil {
			if err := s.Snapshot(); err != nil && first == nil {
				first = err
			}
		}
		s.st.Close()
		if s.log != nil {
			if err := s.log.Close(); err != nil && first == nil {
				first = err
			}
		}
	})
	return first
}

// ---- HTTP surface ----

// latencyBuckets spans 100µs to ~10s, the range between a batched in-memory
// union and a backpressured group commit on slow disks.
var latencyBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10}

// groupEdgeBuckets spans one edge to the maxGroupEdges cap in powers of four.
var groupEdgeBuckets = []float64{1, 4, 16, 64, 256, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22}

// authorized checks the shared-token gate on mutating endpoints: with no
// token configured every request passes; otherwise the request must carry
// "Authorization: Bearer <token>". Constant-time compare — the token is a
// credential.
func (s *Server) authorized(r *http.Request) bool {
	if s.opt.AuthToken == "" {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(got), []byte(s.opt.AuthToken)) == 1
}

func (s *Server) routes() {
	s.accepted = s.reg.Counter("connectit_updates_accepted_total", "", "Edges acknowledged by POST /v1/update (durable when the WAL is enabled).")
	s.backpressure = s.reg.Counter("connectit_backpressure_total", "", "Update requests rejected with 429 because the apply pipeline was too far behind.")
	s.degradedTotal = s.reg.Counter("connectit_degraded_total", "", "Transitions into degraded mode (WAL wedged; reads serving, writes refused).")
	s.unauthorized = s.reg.Counter("connectit_http_unauthorized_total", "", "Mutating requests rejected with 401 by the shared-token gate.")
	const framesHelp = "Accepted ingest frames by transport: one JSON request, one binary HTTP body, or one TCP wire frame each."
	s.framesJSON = s.reg.Counter("connectit_ingest_frames_total", `{proto="json"}`, framesHelp)
	s.framesBinary = s.reg.Counter("connectit_ingest_frames_total", `{proto="binary"}`, framesHelp)
	s.framesTCP = s.reg.Counter("connectit_ingest_frames_total", `{proto="tcp"}`, framesHelp)
	s.handle("/v1/update", "update", s.handleUpdate)
	s.handle("/v1/connected", "connected", s.handleConnected)
	s.handle("/v1/components", "components", s.handleComponents)
	s.handle("/v1/path", "path", s.handlePath)
	s.handle("/v1/component", "component", s.handleComponent)
	s.handle("/v1/stats", "stats", s.handleStats)
	s.handle("/healthz", "healthz", s.handleHealthz)
	s.mux.Handle("/metrics", s.reg)
}

// statusWriter records the response code for the error counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// handle mounts fn with per-handler request, error, and latency metrics.
func (s *Server) handle(path, name string, fn http.HandlerFunc) {
	labels := `{handler="` + name + `"}`
	reqs := s.reg.Counter("connectit_http_requests_total", labels, "HTTP requests by handler.")
	errs := s.reg.Counter("connectit_http_errors_total", labels, "HTTP responses with status >= 400 by handler.")
	lat := s.reg.Histogram("connectit_http_request_seconds", labels, "HTTP request latency by handler.", latencyBuckets)
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		fn(sw, r)
		lat.Observe(time.Since(start).Seconds())
		reqs.Inc()
		if sw.code >= 400 {
			errs.Inc()
		}
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// updateRequest accepts either one edge ({"u":0,"v":1}) or a batch
// ({"edges":[[0,1],[2,3]]}); both forms may appear together.
type updateRequest struct {
	U     *uint32     `json:"u"`
	V     *uint32     `json:"v"`
	Edges [][2]uint32 `json:"edges"`
}

// retryAfter derives the 429 Retry-After hint from how far behind the
// apply pipeline actually is: the excess epochs drain at roughly one per
// flush (timed by the batcher's latest), rounded up to the header's whole-
// second granularity and never below 1 so clients always back off a little.
func (s *Server) retryAfter(pending int) string {
	excess := pending - s.opt.MaxPendingEpochs
	if excess < 0 {
		excess = 0
	}
	d := time.Duration(excess) * time.Duration(s.bat.flushNanos.Load())
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// Scratch pools for the binary ingest paths: one for request/frame bytes,
// one for decoded edge slices. Both are returned after Submit copies the
// batch into the flush group, so steady-state ingest allocates nothing per
// request beyond what the pool amortizes.
var (
	bytePool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}
	edgePool = sync.Pool{New: func() any { e := make([]graph.Edge, 0, 8192); return &e }}
)

// readAllInto reads r to EOF into buf (reusing its capacity), returning
// the filled slice.
func readAllInto(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// handleUpdate is the transactional ingest path: backpressure check, body
// decode (JSON, or a wire edge block when Content-Type selects the binary
// fast path), endpoint validation, then a group commit through the batcher
// — 200 means the batch is durable (WAL enabled) and in the epoch pipeline.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !s.authorized(r) {
		s.unauthorized.Inc()
		w.Header().Set("WWW-Authenticate", `Bearer realm="connectit"`)
		httpError(w, http.StatusUnauthorized, "missing or invalid bearer token")
		return
	}
	if st := s.State(); st != StateServing {
		// Degraded (WAL wedged) or closing: refuse the write up front with
		// an honest retry hint instead of burning a group commit that the
		// wedged log would fail anyway. Reads never pass through here.
		w.Header().Set("Retry-After", s.degradedRetryAfter())
		httpError(w, http.StatusServiceUnavailable, "writes suspended: server "+st.String())
		return
	}
	if p := s.pending(); p > s.opt.MaxPendingEpochs {
		s.backpressure.Inc()
		w.Header().Set("Retry-After", s.retryAfter(p))
		httpError(w, http.StatusTooManyRequests, "apply pipeline behind; retry")
		return
	}
	if ct := r.Header.Get("Content-Type"); ct == wire.ContentTypeEdges || strings.HasPrefix(ct, wire.ContentTypeEdges+";") {
		s.handleUpdateBinary(w, r)
		return
	}
	var req updateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	edges := make([]graph.Edge, 0, len(req.Edges)+1)
	if (req.U == nil) != (req.V == nil) {
		httpError(w, http.StatusBadRequest, `"u" and "v" must be given together`)
		return
	}
	if req.U != nil {
		edges = append(edges, graph.Edge{U: *req.U, V: *req.V})
	}
	for _, e := range req.Edges {
		edges = append(edges, graph.Edge{U: e[0], V: e[1]})
	}
	if len(edges) == 0 {
		httpError(w, http.StatusBadRequest, `provide "u"/"v" or a non-empty "edges" array`)
		return
	}
	s.submitUpdate(w, edges, s.framesJSON)
}

// submitUpdate is the tail both update decoders share: endpoint range
// check, group commit through the batcher, then the accepted/frame counters
// and the {"accepted","durable","lsn"} reply.
func (s *Server) submitUpdate(w http.ResponseWriter, edges []graph.Edge, frames *Counter) {
	if err := s.checkRange(edges); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	lsn, err := s.bat.Submit(edges)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.accepted.Add(uint64(len(edges)))
	frames.Inc()
	resp := map[string]any{"accepted": len(edges), "durable": s.log != nil}
	if s.log != nil {
		resp["lsn"] = lsn
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleUpdateBinary is the zero-copy fast path behind the binary
// content type: the body is one wire edge block, read into pooled scratch
// and delta-decoded into a pooled edge slice that goes straight into the
// group commit — no JSON, no per-request allocation in steady state.
func (s *Server) handleUpdateBinary(w http.ResponseWriter, r *http.Request) {
	bp := bytePool.Get().(*[]byte)
	defer bytePool.Put(bp)
	body, err := readAllInto(http.MaxBytesReader(w, r.Body, wire.MaxFrameBytes), (*bp)[:0])
	*bp = body[:0]
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	ep := edgePool.Get().(*[]graph.Edge)
	defer edgePool.Put(ep)
	edges, n, err := wire.DecodeBlock(body, (*ep)[:0])
	if err == nil && n != len(body) {
		err = fmt.Errorf("%w: %d trailing bytes after block", wire.ErrMalformed, len(body)-n)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	*ep = edges[:0]
	if len(edges) == 0 {
		httpError(w, http.StatusBadRequest, "empty edge block")
		return
	}
	if len(edges) > maxRequestEdges {
		// MaxBytesReader bounds the body's bytes; this bounds its decoded
		// edge count, so one request can never push a flush group past the
		// WAL record bound (see maxRequestEdges).
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("block of %d edges exceeds the %d-edge bound", len(edges), maxRequestEdges))
		return
	}
	s.submitUpdate(w, edges, s.framesBinary)
}

// handleConnected is the analytical fast path: wait-free against the
// applied state (Type i/ii; Type iii waits out an in-flight apply phase).
// Visibility is the stream's contract — an update is visible once its
// epoch's round completes.
func (s *Server) handleConnected(w http.ResponseWriter, r *http.Request) {
	u, errU := parseVertex(r.URL.Query().Get("u"), s.st.Len())
	v, errV := parseVertex(r.URL.Query().Get("v"), s.st.Len())
	if errU != nil || errV != nil {
		httpError(w, http.StatusBadRequest, "u and v must be vertex ids in [0, n)")
		return
	}
	same, err := s.st.Connected(u, v)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"u": u, "v": v, "connected": same})
}

// handleComponents syncs the stream and counts components — the expensive
// quiescent analytical query, deliberately separate from /v1/connected.
// With ?histogram=1 it additionally returns the component-size histogram
// from the live forest index (forest-backed algorithms only).
func (s *Server) handleComponents(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"vertices":   s.st.Len(),
		"components": s.st.NumComponents(),
	}
	if h := r.URL.Query().Get("histogram"); h == "1" || h == "true" {
		q, ok := s.queryEngine(w)
		if !ok {
			return
		}
		s.st.Sync() // barrier: absorb every accepted update into the answer
		hist, err := q.ComponentHistogram()
		if err != nil {
			queryError(w, err)
			return
		}
		resp["histogram"] = hist
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryEngine returns the forest-backed query engine, or writes the 501
// capability verdict (fixed at construction: the algorithm cannot maintain
// a spanning forest) and reports false.
func (s *Server) queryEngine(w http.ResponseWriter) (*query.Engine, bool) {
	if s.q == nil {
		httpError(w, http.StatusNotImplemented, "forest queries unsupported: "+s.qErr.Error())
		return nil, false
	}
	return s.q, true
}

// queryError maps a query engine failure: a closed stream is a service
// state (503), anything else is an internal invariant violation (500).
func queryError(w http.ResponseWriter, err error) {
	if errors.Is(err, core.ErrStreamClosed) {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	httpError(w, http.StatusInternalServerError, err.Error())
}

// handlePath walks the live spanning forest between two vertices: the
// response carries the connectivity verdict and, when connected, the
// witness path as [u, v] pairs oriented from u to v (Algorithm 2's
// Theorem 6 guarantees the forest spans every component, so a connected
// pair always yields a path).
func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	q, ok := s.queryEngine(w)
	if !ok {
		return
	}
	u, errU := parseVertex(r.URL.Query().Get("u"), s.st.Len())
	v, errV := parseVertex(r.URL.Query().Get("v"), s.st.Len())
	if errU != nil || errV != nil {
		httpError(w, http.StatusBadRequest, "u and v must be vertex ids in [0, n)")
		return
	}
	path, connected, err := q.PathBetween(u, v)
	if err != nil {
		queryError(w, err)
		return
	}
	pairs := make([][2]uint32, len(path))
	for i, e := range path {
		pairs[i] = [2]uint32{e.U, e.V}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"u": u, "v": v, "connected": connected,
		"path": pairs, "length": len(pairs),
	})
}

// handleComponent reports a vertex's canonical component label (the
// smallest vertex in its component) and size from the live forest index.
func (s *Server) handleComponent(w http.ResponseWriter, r *http.Request) {
	q, ok := s.queryEngine(w)
	if !ok {
		return
	}
	v, err := parseVertex(r.URL.Query().Get("v"), s.st.Len())
	if err != nil {
		httpError(w, http.StatusBadRequest, "v must be a vertex id in [0, n)")
		return
	}
	label, err := q.Component(v)
	if err != nil {
		queryError(w, err)
		return
	}
	size, err := q.ComponentSize(v)
	if err != nil {
		queryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"v": v, "component": label, "size": size,
	})
}

// statsResponse is the JSON mirror of /metrics for programmatic consumers.
type statsResponse struct {
	Stream core.StreamStats `json:"stream"`
	Pool   parallel.Stats   `json:"pool"`
	WAL    *wal.Stats       `json:"wal,omitempty"`
	Server struct {
		UptimeSeconds float64 `json:"uptime_seconds"`
		PendingEpochs int     `json:"pending_epochs"`
		Accepted      uint64  `json:"accepted"`
		Backpressure  uint64  `json:"backpressure"`
	} `json:"server"`
	Ingest struct {
		JSONFrames   uint64 `json:"json_frames"`
		BinaryFrames uint64 `json:"binary_frames"`
		TCPFrames    uint64 `json:"tcp_frames"`
	} `json:"ingest"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp statsResponse
	resp.Stream = s.st.Stats()
	resp.Pool = parallel.PoolStats()
	if s.log != nil {
		st := s.log.Stats()
		resp.WAL = &st
	}
	resp.Server.UptimeSeconds = time.Since(s.started).Seconds()
	resp.Server.PendingEpochs = s.st.PendingEpochs()
	resp.Server.Accepted = s.accepted.Value()
	resp.Server.Backpressure = s.backpressure.Value()
	resp.Ingest.JSONFrames = s.framesJSON.Value()
	resp.Ingest.BinaryFrames = s.framesBinary.Value()
	resp.Ingest.TCPFrames = s.framesTCP.Value()
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz reports the serving state as plain text: "ok" (200),
// "degraded" (200 — reads still serve, so a liveness-routing LB must not
// kill the process; the body and the state gauge carry the distinction),
// or "closing" (503).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.State()
	w.Header().Set("Content-Type", "text/plain")
	if st == StateClosing {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintln(w, st.String())
}

func parseVertex(s string, n int) (uint32, error) {
	x, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, err
	}
	if x >= uint64(n) {
		return 0, fmt.Errorf("vertex %d out of range [0, %d)", x, n)
	}
	return uint32(x), nil
}

// registerMetrics exposes the engine's own counters — StreamStats,
// PoolStats, and WAL stats — through the registry, so /metrics is a full
// view of the system, not just the HTTP edge.
func (s *Server) registerMetrics() {
	stream := func(f func(core.StreamStats) uint64) func() uint64 {
		return func() uint64 { return f(s.st.Stats()) }
	}
	s.reg.CounterFunc("connectit_stream_updates_total", "", "Accepted Update calls.", stream(func(st core.StreamStats) uint64 { return st.Updates }))
	s.reg.CounterFunc("connectit_stream_filtered_total", "", "Updates that joined nothing: self-loops, Type i unions inside one component, and edges the buffered pre-filter dropped.", stream(func(st core.StreamStats) uint64 { return st.Filtered }))
	s.reg.CounterFunc("connectit_stream_applied_total", "", "Updates past the filter: Type i unions that merged two components, or edges handed to a buffered apply round.", stream(func(st core.StreamStats) uint64 { return st.Applied }))
	s.reg.CounterFunc("connectit_stream_epochs_total", "", "Sealed epochs queued for apply.", stream(func(st core.StreamStats) uint64 { return st.Epochs }))
	s.reg.CounterFunc("connectit_stream_rounds_total", "", "Apply rounds run (epochs/rounds is the coalescing win).", stream(func(st core.StreamStats) uint64 { return st.Rounds }))
	s.reg.CounterFunc("connectit_stream_coalesced_total", "", "Epochs that shared an apply round.", stream(func(st core.StreamStats) uint64 { return st.Coalesced }))
	s.reg.GaugeFunc("connectit_stream_pending_epochs", "", "Sealed epochs not yet fully applied (backpressure signal).", func() float64 { return float64(s.st.PendingEpochs()) })
	s.reg.GaugeFunc("connectit_stream_vertices", "", "Vertex universe size.", func() float64 { return float64(s.st.Len()) })
	s.reg.GaugeFunc("connectit_server_state", "", "Serving state: 0 serving, 1 degraded (reads only), 2 closing.", func() float64 { return float64(s.state.Load()) })

	s.bat.waitSec = s.reg.Histogram("connectit_commit_wait_seconds", "", "Time from Submit entry until its group's flush begins.", latencyBuckets)
	s.bat.walSec = s.reg.Histogram("connectit_commit_wal_seconds", "", "WAL append per flush group, fsync included.", latencyBuckets)
	s.bat.feedSec = s.reg.Histogram("connectit_commit_feed_seconds", "", "Stream feed (UpdateBatch) per flush group.", latencyBuckets)
	s.bat.groupEdges = s.reg.Histogram("connectit_commit_group_edges", "", "Edges per flush group (one WAL record, one fsync).", groupEdgeBuckets)

	if s.q != nil {
		s.reg.GaugeFunc("connectit_query_forest_edges", "", "Spanning-forest edges captured by the stream (witness log length).", func() float64 { return float64(s.st.ForestLen()) })
		s.reg.GaugeFunc("connectit_query_index_edges", "", "Forest edges absorbed into the query index.", func() float64 { return float64(s.q.Stats().ForestEdges) })
		s.reg.GaugeFunc("connectit_query_index_dropped", "", "Pulled edges rejected by the query index as redundant (0 while the forest invariant holds).", func() float64 { return float64(s.q.Stats().Dropped) })
	}

	pool := func(f func(parallel.Stats) uint64) func() uint64 {
		return func() uint64 { return f(parallel.PoolStats()) }
	}
	s.reg.CounterFunc("connectit_pool_calls_total", "", "Parallel calls that rode the persistent pool.", pool(func(ps parallel.Stats) uint64 { return ps.Calls }))
	s.reg.CounterFunc("connectit_pool_sequential_total", "", "Parallel calls that ran inline.", pool(func(ps parallel.Stats) uint64 { return ps.Sequential }))
	s.reg.CounterFunc("connectit_pool_chunks_total", "", "Chunks executed by pool workers.", pool(func(ps parallel.Stats) uint64 { return ps.Chunks }))
	s.reg.CounterFunc("connectit_pool_steals_total", "", "Chunks stolen across workers (load-balance traffic).", pool(func(ps parallel.Stats) uint64 { return ps.Steals }))
	s.reg.CounterFunc("connectit_pool_wakes_total", "", "Worker wakeups from park.", pool(func(ps parallel.Stats) uint64 { return ps.Wakes }))
	s.reg.CounterFunc("connectit_pool_parks_total", "", "Worker parks after the spin budget.", pool(func(ps parallel.Stats) uint64 { return ps.Parks }))
	s.reg.GaugeFunc("connectit_pool_procs", "", "Scheduler width (GOMAXPROCS).", func() float64 { return float64(parallel.Procs()) })

	if s.opt.WALDir != "" {
		walStat := func(f func(wal.Stats) uint64) func() uint64 {
			return func() uint64 { return f(s.log.Stats()) }
		}
		s.reg.GaugeFunc("connectit_wal_lsn", "", "Next WAL record sequence number.", func() float64 { return float64(s.log.LSN()) })
		s.reg.GaugeFunc("connectit_wal_snapshot_lsn", "", "LSN covered by the latest snapshot.", func() float64 { return float64(s.log.Stats().SnapshotLSN) })
		s.reg.GaugeFunc("connectit_wal_segments", "", "Live WAL segment files.", func() float64 { return float64(s.log.Stats().Segments) })
		s.reg.CounterFunc("connectit_wal_appends_total", "", "Records appended to the WAL.", walStat(func(ws wal.Stats) uint64 { return ws.Appends }))
		s.reg.CounterFunc("connectit_wal_appended_edges_total", "", "Edges appended to the WAL.", walStat(func(ws wal.Stats) uint64 { return ws.AppendedEdges }))
		s.reg.CounterFunc("connectit_wal_bytes_total", "", "Bytes written to the WAL.", walStat(func(ws wal.Stats) uint64 { return ws.Bytes }))
		s.reg.CounterFunc("connectit_wal_raw_bytes", "", "Payload bytes appended records would cost at the raw 8 bytes per edge.", walStat(func(ws wal.Stats) uint64 { return ws.RawBytes }))
		s.reg.CounterFunc("connectit_wal_written_bytes", "", "Payload bytes actually stored after wire-block compression (raw/written is the WAL compression ratio).", walStat(func(ws wal.Stats) uint64 { return ws.WrittenBytes }))
		s.reg.CounterFunc("connectit_wal_syncs_total", "", "WAL fsyncs.", walStat(func(ws wal.Stats) uint64 { return ws.Syncs }))
		s.reg.CounterFunc("connectit_wal_snapshots_total", "", "Snapshots committed since boot.", walStat(func(ws wal.Stats) uint64 { return ws.Snapshots }))
		s.reg.CounterFunc("connectit_wal_wedges_total", "", "Append failures that wedged the log (each starts a degraded episode).", walStat(func(ws wal.Stats) uint64 { return ws.Wedges }))
		s.reg.CounterFunc("connectit_wal_recoveries_total", "", "Successful wedge recoveries (log rotated to a fresh segment and resumed).", walStat(func(ws wal.Stats) uint64 { return ws.Recoveries }))
	}
}
