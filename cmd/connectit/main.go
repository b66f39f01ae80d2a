// Command connectit runs a ConnectIt algorithm combination on a generated
// or loaded graph and reports components and timing.
//
// Algorithms are selected with canonical spec strings (see ParseConfig):
//
//	connectit -graph rmat -scale 18 -sampling kout -algo "uf;rem-cas;naive;split-one"
//	connectit -graph grid -n 1000 -sampling ldd -algo sv
//	connectit -graph file -path web.el -algo "lt;CRFA"
//	connectit -graph ba -n 100000 -forest
//	connectit -stream -workers 8 -qmix 0.5 -algo "uf;rem-cas;naive;split-one"
//	connectit -list
//
// The graph representation is selected with -format: "csr" (flat CSR,
// default), "compressed" (byte-compressed CSR; every algorithm, and
// -forest, runs directly on the encoding), or "bin" (memory-map the .cbin
// file named by -path in one lazy mapping, opening in O(index); the
// out-of-core path). -convert writes the graph to a .cbin (v4) file and
// exits. A .cbin of version 1 to 3 is refused, not converted: re-create it
// from its source edge list (-graph file -path edges.txt -convert). -v
// prints the per-backend memory footprint (SizeBytes and bytes/edge) so the
// space/throughput tradeoff is visible:
//
//	connectit -graph rmat -scale 20 -convert rmat20.cbin
//	connectit -format bin -path rmat20.cbin -v -algo "uf;rem-cas;naive;split-one"
//	connectit -graph rmat -scale 18 -format compressed -v
//	connectit -format bin -path rmat20.cbin -algo "lt;CRFA" -forest
//
// -serve runs the HTTP connectivity service over -n initially isolated
// vertices: POST /v1/update ingests edges (group-committed through the
// write-ahead log named by -wal-dir when set), GET /v1/connected answers
// wait-free queries, and GET /metrics exposes Prometheus counters; the
// process shuts down gracefully on SIGINT/SIGTERM (DESIGN.md §11):
//
//	connectit -serve -n 1000000 -addr :8080 -wal-dir /var/lib/connectit
//
// -list enumerates every finish algorithm in the registry with its
// capabilities; each printed name is a valid -algo value. -stream drives
// the concurrent ingest engine with -workers goroutines issuing a -qmix
// query/update mix and reports edges/sec, queries/sec, and the coalescing
// pipeline's epochs-per-round; -epoch tunes the pipeline (DESIGN.md §9).
//
// Invalid flags, spec strings, or malformed input files produce a one-line
// error and exit status 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"connectit"
	"connectit/internal/core"
	"connectit/internal/parallel"
)

var (
	graphKind = flag.String("graph", "rmat", "graph source: rmat|ba|er|grid|web|file")
	scale     = flag.Int("scale", 16, "log2 vertex count for rmat/web")
	n         = flag.Int("n", 1<<16, "vertex count for ba/er, side length for grid")
	mPerN     = flag.Int("degree", 10, "average degree (edges = degree*n)")
	path      = flag.String("path", "", "edge list file for -graph file")
	seed      = flag.Uint64("seed", 1, "random seed")

	samplingName = flag.String("sampling", "kout", "sampling: none|kout|bfs|ldd")
	k            = flag.Int("k", 2, "k-out parameter")
	beta         = flag.Float64("beta", 0.2, "LDD beta parameter")

	algo = flag.String("algo", "uf;rem-cas;naive;split-one",
		`finish algorithm spec, e.g. "uf;rem-cas;naive;split-one", "lt;CRFA", "sv", "stergiou", "lp"`)

	forest    = flag.Bool("forest", false, "compute spanning forest instead of components")
	withStats = flag.Bool("stats", false, "report union-find path-length statistics")
	list      = flag.Bool("list", false, "list every registered finish algorithm and exit")

	format  = flag.String("format", "csr", "graph representation: csr|compressed|bin (bin memory-maps the .cbin file named by -path)")
	convert = flag.String("convert", "", "write the graph to this .cbin (v4) file and exit")
	verbose = flag.Bool("v", false, "print per-backend memory footprint (SizeBytes, bytes/edge)")

	serve         = flag.Bool("serve", false, "run the HTTP connectivity service over -n vertices (see -addr, -wal-dir)")
	addr          = flag.String("addr", ":8080", "listen address for -serve")
	ingestAddr    = flag.String("ingest-addr", "", "binary TCP ingest listen address for -serve (empty disables; see -load)")
	walDir        = flag.String("wal-dir", "", "write-ahead log directory for -serve (empty = no durability)")
	snapInterval  = flag.Duration("snapshot-interval", 5*time.Minute, "WAL compaction period for -serve, in [1s, 24h] (negative disables)")
	maxPending    = flag.Int("max-pending", 64, "backpressure bound for -serve: updates get 429 while more sealed epochs than this await apply")
	walNoSync     = flag.Bool("wal-nosync", false, "skip the per-group fsync for -serve (risks groups not yet synced on crash)")
	authToken     = flag.String("auth-token", "", "bearer token required on mutating endpoints for -serve (default $CONNECTIT_AUTH_TOKEN; empty leaves writes open)")
	faultSpec     = flag.String("faults", "", "fault-injection schedule for -serve chaos runs, e.g. \"wal.sync:at=3:err=EIO;conn.write:at=10:reset\" (default $CONNECTIT_FAULTS; empty injects nothing)")
	probeInterval = flag.Duration("probe-interval", time.Second, "degraded-mode recovery probe period for -serve, in [10ms, 10m]")
	degradedMode  = flag.String("degraded-policy", "fail-writes", "what a wedged WAL does to -serve: fail-writes (reads keep serving, writes 503, probe retries recovery) or crash (exit for supervisor restart)")

	loadAddr  = flag.String("load", "", "drive a server's binary TCP ingest listener at this address with generated edges and report edges/sec")
	loadURL   = flag.String("load-http", "", "drive POST /v1/update at this base URL with JSON batches instead (the comparison path)")
	loadEdges = flag.Int("load-edges", 1<<20, "edges to send in -load / -load-http mode")
	loadBatch = flag.Int("load-batch", 4096, "edges per frame/request in -load / -load-http mode")

	stream  = flag.Bool("stream", false, "drive the concurrent ingest engine instead of a static run")
	workers = flag.Int("workers", 8, "concurrent producer goroutines for -stream")
	qmix    = flag.Float64("qmix", 0.1, "fraction of stream operations that are queries, in [0, 1)")
	epoch   = flag.Int("epoch", 0, "ingest epoch size for -stream (0 = default)")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: connectit [flags]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(); err != nil {
		// Library errors already carry the "connectit:" prefix.
		msg := err.Error()
		if !strings.HasPrefix(msg, "connectit:") {
			msg = "connectit: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(1)
	}
}

// validateFlags bounds every numeric flag before any allocation or shift
// depends on it: bad values must yield a one-line error, never a panic or
// an absurd allocation.
func validateFlags() error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", flag.Args())
	}
	if *scale < 1 || *scale > 28 {
		return fmt.Errorf("-scale %d out of range [1, 28]", *scale)
	}
	if *n < 1 || *n > 1<<28 {
		return fmt.Errorf("-n %d out of range [1, %d]", *n, 1<<28)
	}
	if *mPerN < 0 || *mPerN > 4096 {
		return fmt.Errorf("-degree %d out of range [0, 4096]", *mPerN)
	}
	if int64(*mPerN)<<uint(*scale) > 1<<31 || int64(*mPerN)*int64(*n) > 1<<31 {
		return fmt.Errorf("-degree %d with -scale %d / -n %d requests more than 2^31 edges", *mPerN, *scale, *n)
	}
	if *k < 1 || *k > 64 {
		return fmt.Errorf("-k %d out of range [1, 64]", *k)
	}
	if *beta <= 0 || *beta > 4 {
		return fmt.Errorf("-beta %g out of range (0, 4]", *beta)
	}
	if *workers < 1 || *workers > 1<<12 {
		return fmt.Errorf("-workers %d out of range [1, 4096]", *workers)
	}
	if *qmix < 0 || *qmix >= 1 {
		return fmt.Errorf("-qmix %g out of range [0, 1)", *qmix)
	}
	if *epoch < 0 || *epoch > 1<<24 {
		return fmt.Errorf("-epoch %d out of range [0, %d]", *epoch, 1<<24)
	}
	if *stream && *forest {
		return errors.New("-stream and -forest are mutually exclusive")
	}
	if *loadAddr != "" && *loadURL != "" {
		return errors.New("-load and -load-http are mutually exclusive")
	}
	if *loadAddr != "" || *loadURL != "" {
		if *serve || *stream || *forest || *convert != "" {
			return errors.New("-load/-load-http is mutually exclusive with -serve, -stream, -forest, and -convert")
		}
		if *loadEdges < 1 || *loadEdges > 1<<30 {
			return fmt.Errorf("-load-edges %d out of range [1, %d]", *loadEdges, 1<<30)
		}
		if *loadBatch < 1 || *loadBatch > 1<<20 {
			return fmt.Errorf("-load-batch %d out of range [1, %d]", *loadBatch, 1<<20)
		}
	}
	if *serve {
		if *stream || *forest || *convert != "" {
			return errors.New("-serve is mutually exclusive with -stream, -forest, and -convert")
		}
		if _, err := net.ResolveTCPAddr("tcp", *addr); err != nil {
			return fmt.Errorf("-addr %q is not a valid listen address: %v", *addr, err)
		}
		if *ingestAddr != "" {
			if _, err := net.ResolveTCPAddr("tcp", *ingestAddr); err != nil {
				return fmt.Errorf("-ingest-addr %q is not a valid listen address: %v", *ingestAddr, err)
			}
		}
		if *snapInterval >= 0 && (*snapInterval < time.Second || *snapInterval > 24*time.Hour) {
			return fmt.Errorf("-snapshot-interval %v out of range [1s, 24h]", *snapInterval)
		}
		if *maxPending < 1 || *maxPending > 1<<20 {
			return fmt.Errorf("-max-pending %d out of range [1, %d]", *maxPending, 1<<20)
		}
		if *walDir != "" {
			if err := probeWritableDir(*walDir); err != nil {
				return fmt.Errorf("-wal-dir %q is not writable: %v", *walDir, err)
			}
		}
		if *probeInterval < 10*time.Millisecond || *probeInterval > 10*time.Minute {
			return fmt.Errorf("-probe-interval %v out of range [10ms, 10m]", *probeInterval)
		}
		switch *degradedMode {
		case "fail-writes", "crash":
		default:
			return fmt.Errorf("unknown -degraded-policy %q (want fail-writes|crash)", *degradedMode)
		}
	}
	switch *format {
	case "csr", "compressed", "bin":
	default:
		return fmt.Errorf("unknown -format %q (want csr|compressed|bin)", *format)
	}
	if *format == "bin" && *path == "" {
		return errors.New("-format bin requires -path naming a .cbin file")
	}
	if *stream && *format != "csr" {
		return errors.New("-stream replays COO batches and needs -format csr")
	}
	return nil
}

func run() error {
	if *list {
		return listAlgorithms()
	}
	if err := validateFlags(); err != nil {
		return err
	}
	if *serve {
		return runServe()
	}
	if *loadAddr != "" || *loadURL != "" {
		return runLoad()
	}

	cfg, err := connectit.ParseConfig(*samplingName + ";" + *algo)
	if err != nil {
		return err
	}
	cfg.Seed = *seed
	cfg.K = *k
	cfg.Beta = *beta
	var stats connectit.Stats
	if *withStats {
		cfg.Stats = &stats
	}

	solver, err := connectit.Compile(cfg)
	if err != nil {
		return err
	}

	rep, csr, err := makeRep()
	if err != nil {
		return err
	}

	if *convert != "" {
		// -format compressed and bin hold the encoding already; csr encodes.
		out, ok := rep.(*connectit.CompressedGraph)
		if !ok {
			if out, err = connectit.TryCompress(csr); err != nil {
				return err
			}
		}
		if err := connectit.SaveCBIN(*convert, out); err != nil {
			return err
		}
		fmt.Printf("wrote %s: n=%d m=%d, %s\n", *convert, out.NumVertices(), out.NumEdges(), footprint(out))
		return nil
	}

	fmt.Printf("graph: n=%d m=%d (format %s)\n", rep.NumVertices(), rep.NumDirectedEdges()/2, *format)
	fmt.Printf("algorithm: %s\n", solver.Name())
	if *verbose {
		if csr != nil {
			fmt.Printf("footprint[csr]: %s\n", footprint(csr))
		}
		if c, ok := rep.(*connectit.CompressedGraph); ok {
			fmt.Printf("footprint[compressed]: %s\n", footprint(c))
			if csr != nil {
				fmt.Printf("footprint ratio: %.2fx smaller\n", float64(csr.SizeBytes())/float64(c.SizeBytes()))
			}
		}
	}

	if *stream {
		return runStream(solver, csr)
	}

	if *forest {
		start := time.Now()
		edges, err := solver.SpanningForest(rep)
		elapsed := time.Since(start)
		if err != nil {
			return err
		}
		fmt.Printf("spanning forest: %d edges in %v\n", len(edges), elapsed)
		printPoolStats()
		return nil
	}

	start := time.Now()
	labels, err := solver.ComponentsOn(rep)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	start = time.Now()
	q := connectit.QueryLabels(labels)
	comps, err := q.NumComponents()
	if err != nil {
		return err
	}
	_, largest, err := q.LargestComponent()
	if err != nil {
		return err
	}
	summary := time.Since(start)
	fmt.Printf("components: %d (largest %d vertices, %.1f%%) in %v\n",
		comps, largest, 100*float64(largest)/float64(len(labels)), elapsed)
	if *verbose {
		// What the line above cost on top of the solve it reports.
		fmt.Printf("summary: %v\n", summary)
	}
	fmt.Printf("throughput: %.1fM edges/s\n", float64(rep.NumDirectedEdges()/2)/elapsed.Seconds()/1e6)
	if *withStats {
		fmt.Printf("stats: unions=%d TPL=%d MPL=%d\n", stats.Unions(), stats.TotalPathLength(), stats.MaxPathLength())
	}
	printPoolStats()
	return nil
}

// printPoolStats surfaces the persistent fork-join pool's counters under
// -v: calls that rode the pool vs ran inline, chunk and steal volume (load
// balance), and wake/park traffic (how often the epoch barrier's spin
// phase caught the next call).
func printPoolStats() {
	if !*verbose {
		return
	}
	ps := parallel.PoolStats()
	fmt.Printf("pool: procs=%d calls=%d sequential=%d chunks=%d steals=%d wakes=%d parks=%d\n",
		parallel.Procs(), ps.Calls, ps.Sequential, ps.Chunks, ps.Steals, ps.Wakes, ps.Parks)
}

// footprint renders a backend's resident size and bytes per directed edge.
func footprint(rep interface {
	NumDirectedEdges() int
	SizeBytes() int
}) string {
	bytesPerEdge := 0.0
	if de := rep.NumDirectedEdges(); de > 0 {
		bytesPerEdge = float64(rep.SizeBytes()) / float64(de)
	}
	return fmt.Sprintf("%d bytes (%.2f bytes/directed-edge)", rep.SizeBytes(), bytesPerEdge)
}

// makeRep builds or loads the graph in the representation selected by
// -format. csr is non-nil whenever the flat graph was materialized along
// the way (every format except bin); the stream/forest paths require it.
func makeRep() (rep connectit.GraphRep, csr *connectit.Graph, err error) {
	if *format == "bin" {
		c, err := connectit.LoadCBIN(*path)
		if err != nil {
			return nil, nil, err
		}
		return c, nil, nil
	}
	g, err := makeGraph(*graphKind, *scale, *n, *mPerN, *path, *seed)
	if err != nil {
		return nil, nil, err
	}
	if *format == "compressed" {
		c, err := connectit.TryCompress(g)
		if err != nil {
			return nil, nil, err
		}
		return c, g, nil
	}
	return g, g, nil
}

// probeWritableDir verifies the WAL directory can be created and written
// before the service boots, so a bad -wal-dir is a one-line error rather
// than a late open failure mid-recovery.
func probeWritableDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

// runServe boots the HTTP connectivity service and blocks until SIGINT or
// SIGTERM, then shuts down gracefully (drain, final snapshot, seal log).
func runServe() error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	durable := "in-memory (no -wal-dir)"
	if *walDir != "" {
		durable = "wal " + *walDir
	}
	// Secrets and chaos schedules also travel via the environment, so a
	// supervisor can set them without putting a token on the command line.
	token := *authToken
	if token == "" {
		token = os.Getenv("CONNECTIT_AUTH_TOKEN")
	}
	faults := *faultSpec
	if faults == "" {
		faults = os.Getenv("CONNECTIT_FAULTS")
	}
	fmt.Printf("serving on %s: n=%d, algo %s;%s, %s\n", *addr, *n, *samplingName, *algo, durable)
	if *ingestAddr != "" {
		fmt.Printf("binary ingest on %s\n", *ingestAddr)
	}
	if token != "" {
		fmt.Printf("mutating endpoints require a bearer token\n")
	}
	if faults != "" {
		fmt.Printf("fault injection armed: %s\n", faults)
	}
	return connectit.Serve(ctx, connectit.ServerOptions{
		Addr:             *addr,
		IngestAddr:       *ingestAddr,
		NumVertices:      *n,
		Spec:             *samplingName + ";" + *algo,
		Stream:           connectit.StreamOptions{EpochSize: *epoch},
		WALDir:           *walDir,
		SnapshotInterval: *snapInterval,
		MaxPendingEpochs: *maxPending,
		NoSync:           *walNoSync,
		AuthToken:        token,
		FaultSpec:        faults,
		ProbeInterval:    *probeInterval,
		DegradedPolicy:   connectit.DegradedPolicy(*degradedMode),
	})
}

// runStream replays g's edges as a live stream: -workers producers push
// interleaved updates and (a -qmix fraction of) connectivity queries into
// the concurrent ingest engine.
func runStream(solver *connectit.Solver, g *connectit.Graph) error {
	if caps := solver.Capabilities(); !caps.Streaming {
		return fmt.Errorf("algorithm %s does not stream", solver.Name())
	}
	st, err := solver.Stream(g.NumVertices(), connectit.StreamOptions{EpochSize: *epoch})
	if err != nil {
		return err
	}
	edges := g.Edges()
	fmt.Printf("stream: %v, %d workers, %.0f%% queries\n", st.Type(), *workers, *qmix*100)
	start := time.Now()
	queries := core.DriveStream(st, edges, g.NumVertices(), *workers, *qmix)
	st.Sync()
	elapsed := time.Since(start)

	s := st.Stats()
	fmt.Printf("ingested %d updates, answered %d queries in %v\n", s.Updates, queries, elapsed)
	fmt.Printf("throughput: %.2fM updates/s, %.2fM queries/s\n",
		float64(s.Updates)/elapsed.Seconds()/1e6, float64(queries)/elapsed.Seconds()/1e6)
	droppedPct := 0.0
	if s.Updates > 0 {
		droppedPct = 100 * float64(s.Filtered) / float64(s.Updates)
	}
	fmt.Printf("joined nothing: %d of %d updates (%.1f%%)\n", s.Filtered, s.Updates, droppedPct)
	if s.Rounds > 0 {
		fmt.Printf("apply pipeline: %d epochs in %d rounds (%d coalesced, %.2f epochs/round)\n",
			s.Epochs, s.Rounds, s.Coalesced, float64(s.Epochs)/float64(s.Rounds))
	}
	fmt.Printf("components: %d\n", st.NumComponents())
	printPoolStats()
	return nil
}

// listAlgorithms prints the registry-derived inventory: every finish
// algorithm's canonical name plus its forest/streaming capabilities.
func listAlgorithms() error {
	fmt.Printf("%-44s %-8s %-22s %s\n", "Algorithm", "Forest", "Streaming", "WaitFreeQ")
	for _, a := range connectit.Algorithms() {
		s, err := connectit.Compile(connectit.Config{Algorithm: a})
		if err != nil {
			return err
		}
		caps := s.Capabilities()
		forest, streaming, waitfree := "yes", "no", "-"
		if !caps.SpanningForest {
			forest = "no"
		}
		if caps.Streaming {
			streaming = caps.StreamType.String()
			if caps.WaitFreeQueries {
				waitfree = "yes"
			} else {
				waitfree = "no"
			}
		}
		fmt.Printf("%-44s %-8s %-22s %s\n", a.Name(), forest, streaming, waitfree)
	}
	return nil
}

func makeGraph(kind string, scale, n, deg int, path string, seed uint64) (*connectit.Graph, error) {
	switch kind {
	case "rmat":
		return connectit.NewRMAT(scale, deg*(1<<scale), seed), nil
	case "ba":
		return connectit.NewBarabasiAlbert(n, deg, seed), nil
	case "er":
		return connectit.NewErdosRenyi(n, deg*n/2, seed), nil
	case "grid":
		if n > 1<<14 {
			return nil, fmt.Errorf("-graph grid: side length %d too large (max %d)", n, 1<<14)
		}
		return connectit.NewGrid2D(n, n), nil
	case "web":
		return connectit.NewWebLike(scale, deg*(1<<scale), 0.05, seed), nil
	case "file":
		if path == "" {
			return nil, errors.New("-graph file requires -path")
		}
		return connectit.LoadEdgeListFile(path)
	}
	return nil, fmt.Errorf("unknown graph kind %q (want rmat|ba|er|grid|web|file)", kind)
}
