package main

import (
	"encoding/binary"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"connectit"
	"connectit/internal/parallel"
	"connectit/internal/sample"
	"connectit/internal/wal"
	"connectit/internal/wire"
)

// panelInput is what the layer panel runs on: the workload's own edges (a
// prefix of them for the streaming workloads), and the flush-group size
// the WAL and apply probes use.
type panelInput struct {
	n          int
	edges      []connectit.Edge
	groupEdges int // observed mean group size; 0 = defaultGroupEdges
}

// defaultGroupEdges is the group size the WAL and apply probes use when the
// workload has no server to observe one on: two 1024-edge frames, what the
// batcher collects per 2 ms flush interval at the reference rate.
const defaultGroupEdges = 2048

// The stream types the panel runs the mix on beside the default Type (i):
// the paper's Table 4 ordering (i > iii) as a recorded fact.
const (
	type2Spec = "none;sv"                         // Type (ii), synchronous rounds
	type3Spec = "none;uf;rem-cas;naive;splice"    // Type (iii), phase-concurrent
	defSpec   = "kout;uf;rem-cas;naive;split-one" // DefaultConfig
	noneSpec  = "none;uf;rem-cas;naive;split-one" // the finish kernel over every edge
)

// medianOf times fn reps times through the tracer and returns the median
// in milliseconds.
func medianOf(tr *tracer, name string, reps int, fn func()) float64 {
	ds := make([]time.Duration, reps)
	for i := range ds {
		ds[i] = tr.timed(name, -1, int64(i), fn)
	}
	return median(msOf(ds))
}

// closeRep releases the file mapping behind a graph LoadCBIN returned.
func closeRep(g connectit.GraphRep) {
	if c, ok := g.(interface{ Close() error }); ok {
		c.Close()
	}
}

func mustConfig(spec string, seed uint64) connectit.Config {
	cfg, err := connectit.ParseConfig(spec)
	if err != nil {
		panic(err) // the specs are constants of this package
	}
	cfg.Seed = seed
	return cfg
}

// runPanel measures every layer from outside, one probe per layer metric of
// BENCHMARK.json, each a timed call (or a few) into that layer's exported
// functions on the workload's own edges. Every workload runs the whole
// panel: on the workload a layer does the work of, its probe says what
// share of the end-to-end number that layer can account for; on the others
// it is the same layer on another input shape.
func runPanel(r run, tr *tracer, in panelInput, rep *report) {
	L := rep.layers
	n, edges := in.n, in.edges
	group := in.groupEdges
	if group <= 0 {
		group = defaultGroupEdges
	}
	group = min(group, len(edges))

	// graph
	var g *connectit.Graph
	L["graph.build_ms"] = medianOf(tr, "graph.BuildGraph", 3, func() { g = connectit.BuildGraph(n, edges) })
	directed := float64(g.NumDirectedEdges())
	c := connectit.Compress(g)
	L["graph.bytes_per_edge"] = float64(c.SizeBytes()) / directed
	onePath, multiPath := filepath.Join(r.tmp, "panel-1.cbin"), filepath.Join(r.tmp, "panel-k.cbin")
	seg, err := connectit.TrySegment(g, r.sz.multisegBytes)
	if err == nil {
		err = connectit.SaveCBIN(multiPath, seg)
	}
	if err == nil {
		err = connectit.SaveCBIN(onePath, c)
	}
	if err != nil {
		rep.errorf("panel: writing .cbin: %v", err)
		return
	}
	var one connectit.GraphRep
	L["graph.loadcbin_ms"] = medianOf(tr, "graph.LoadCBIN", 9, func() {
		if one != nil {
			closeRep(one)
		}
		if one, err = connectit.LoadCBIN(onePath); err != nil {
			panic(err) // written two lines up
		}
	})
	L["graph.sweep_ms"] = medianOf(tr, "graph.NeighborsInto", 5, func() {
		parallel.ForGrained(n, 1024, func(lo, hi int) {
			var buf []connectit.Vertex
			for v := lo; v < hi; v++ {
				buf = one.NeighborsInto(connectit.Vertex(v), buf)
			}
		})
	})
	def := connectit.MustCompile(mustConfig(defSpec, r.seed))
	solveOn := func(name string, g connectit.GraphRep) float64 {
		return medianOf(tr, name, 5, func() {
			if _, err := def.ComponentsOn(g); err != nil {
				panic(err)
			}
		})
	}
	L["graph.oneseg_solve_ms"] = solveOn("core.ComponentsOn(1 segment)", one)
	closeRep(one)
	multi, err := connectit.LoadCBIN(multiPath)
	if err != nil {
		rep.errorf("panel: LoadCBIN: %v", err)
		return
	}
	L["graph.multiseg_solve_ms"] = solveOn("core.ComponentsOn(k segments)", multi)
	if sg, ok := multi.(*connectit.SegmentedGraph); ok {
		rep.notef("graph.multiseg_solve_ms ran over %d segments of at most %d bytes", sg.NumSegments(), r.sz.multisegBytes)
	}
	closeRep(multi)

	// sample
	var sres *sample.Result
	L["sample.kout_ms"] = medianOf(tr, "sample.KOut", 7, func() {
		sres = sample.KOut(g, 2, sample.KOutHybrid, r.seed, false)
	})
	L["sample.coverage"] = sample.Coverage(sres.Labels, sample.MostFrequent(sres.Labels, r.seed))
	L["sample.inter_edge_share"] = float64(sample.InterComponentEdges(g, sres.Labels)) / directed

	// finish and union-find: the unsampled configuration sends every edge
	// through the finish kernel.
	none := connectit.MustCompile(mustConfig(noneSpec, r.seed))
	L["finish.full_ms"] = medianOf(tr, "core.Components(none)", 7, func() { none.Components(g) })
	var st connectit.Stats
	cfg := mustConfig(noneSpec, r.seed)
	cfg.Stats = &st
	connectit.MustCompile(cfg).Components(g)
	L["unionfind.unions"] = float64(st.Unions())
	L["unionfind.total_path_len"] = float64(st.TotalPathLength())
	L["unionfind.max_path_len"] = float64(st.MaxPathLength())

	// core and parallel: fixed costs per solve.
	L["core.compile_us"] = 1000 * medianOf(tr, "core.Compile", 21, func() { connectit.MustCompile(connectit.DefaultConfig()) })
	var ms0, ms1 runtime.MemStats
	const allocSolves = 7
	var labels []uint32
	runtime.ReadMemStats(&ms0)
	p0 := parallel.PoolStats()
	for i := 0; i < allocSolves; i++ {
		labels = def.Components(g)
	}
	p1 := parallel.PoolStats()
	runtime.ReadMemStats(&ms1)
	L["core.alloc_kb_per_solve"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / allocSolves
	L["parallel.chunks_per_solve"] = float64(p1.Chunks-p0.Chunks) / allocSolves
	L["parallel.steals_per_solve"] = float64(p1.Steals-p0.Steals) / allocSolves
	L["parallel.for_empty_us"] = 1000 * medianOf(tr, "parallel.For", 21, func() { parallel.For(n, func(int) {}) })

	// query
	var q *connectit.Query
	L["query.build_ms"] = medianOf(tr, "query.QueryLabels", 7, func() {
		q = connectit.QueryLabels(labels)
		q.NumComponents()
	})
	const probes = 1 << 20
	pairs := rng(r.seed ^ 0xc0)
	d := tr.timed("query.Connected", -1, 0, func() {
		for i := 0; i < probes; i++ {
			x := pairs.next()
			q.Connected(uint32(x>>32)%uint32(n), uint32(x)%uint32(n))
		}
	})
	L["query.connected_ns"] = float64(d) / probes

	// ingest: the engine against the bare kernel on the same edges.
	stream, err := connectit.NewStream(n, connectit.DefaultConfig())
	if err != nil {
		panic(err) // the default configuration streams
	}
	d = tr.timed("ingest.Update", -1, 0, func() {
		split(len(edges), func(lo, hi int) {
			for _, e := range edges[lo:hi] {
				stream.Update(e.U, e.V)
			}
		})
	})
	L["ingest.update_ns"] = float64(d) / float64(len(edges))
	L["ingest.sync_ms"] = ms(tr.timed("ingest.Sync", -1, 0, stream.Sync))
	d = tr.timed("ingest.Connected", -1, 0, func() {
		split(probes, func(lo, hi int) {
			pairs := rng(r.seed + uint64(lo))
			for i := lo; i < hi; i++ {
				x := pairs.next()
				stream.Connected(uint32(x>>32)%uint32(n), uint32(x)%uint32(n))
			}
		})
	})
	L["ingest.connected_ns"] = float64(d) / probes
	ist := stream.Stats()
	L["ingest.prefilter_drop_share"] = float64(ist.Filtered) / float64(max(ist.Updates, 1))
	stream.Close()
	inc, err := connectit.NewIncremental(n, connectit.DefaultConfig())
	if err != nil {
		panic(err)
	}
	d = tr.timed("core.Incremental.Update", -1, 0, func() {
		split(len(edges), func(lo, hi int) {
			for _, e := range edges[lo:hi] {
				inc.Update(e.U, e.V)
			}
		})
	})
	L["core.incremental_update_ns"] = float64(d) / float64(len(edges))
	L["ingest.overhead_ns"] = L["ingest.update_ns"] - L["core.incremental_update_ns"]

	mixOn := func(spec string) (float64, connectit.StreamStats) {
		st, err := connectit.NewStream(n, mustConfig(spec, r.seed))
		if err != nil {
			panic(err) // both specs stream; see `connectit -list`
		}
		defer st.Close()
		res := driveMix(st, n, edges[:min(len(edges), 1<<20)], r.seed, nil, tr, -1, 0)
		return float64(res.ops) / res.wall.Seconds(), st.Stats()
	}
	L["ingest.type2_ops_per_s"], _ = mixOn(type2Spec)
	var st3 connectit.StreamStats
	L["ingest.type3_ops_per_s"], st3 = mixOn(type3Spec)
	// Type (i) never buffers, so epochs per round exists on the buffered
	// types only; Type (iii) is the one that shares the union-find kernel.
	L["ingest.epochs_per_round"] = float64(st3.Epochs) / float64(max(st3.Rounds, 1))

	// wire: the 1024-edge frames the serve workload sends.
	nFrames := min(len(edges)/frameEdges, 256)
	var buf []byte
	d = tr.timed("wire.AppendFrame", -1, 0, func() {
		for i := 0; i < nFrames; i++ {
			buf = wire.AppendFrame(buf, edges[i*frameEdges:(i+1)*frameEdges])
		}
	})
	wireEdges := float64(nFrames * frameEdges)
	L["wire.encode_ns_per_edge"] = float64(d) / wireEdges
	L["wire.bytes_per_edge"] = float64(len(buf)) / wireEdges
	var dec []connectit.Edge
	d = tr.timed("wire.DecodeBlock", -1, 0, func() {
		for rest := buf; len(rest) > 0; {
			l := int(binary.LittleEndian.Uint32(rest))
			if dec, _, err = wire.DecodeBlock(rest[4:4+l], dec[:0]); err != nil {
				panic(err) // encoded two lines up
			}
			rest = rest[4+l:]
		}
	})
	L["wire.decode_ns_per_edge"] = float64(d) / wireEdges

	// wal: one group per append, with and without the fsync, in a sibling
	// directory on the filesystem the server's log lives on.
	appendMs := func(noSync bool, reps int) float64 {
		name := "wal.Append(sync)"
		dir := filepath.Join(r.tmp, "panel-wal-sync")
		if noSync {
			name, dir = "wal.Append(nosync)", filepath.Join(r.tmp, "panel-wal-nosync")
		}
		log, err := wal.Open(dir, wal.Options{NoSync: noSync})
		if err != nil {
			rep.errorf("panel: wal.Open: %v", err)
			return 0
		}
		defer log.Close()
		i := 0
		return medianOf(tr, name, reps, func() {
			lo := (i * group) % (len(edges) - group + 1)
			i++
			if _, err := log.Append(edges[lo : lo+group]); err != nil {
				panic(err)
			}
		})
	}
	L["wal.append_sync_ms"] = appendMs(false, 101)
	L["wal.append_nosync_ms"] = appendMs(true, 101)
	L["wal.fsync_ms"] = L["wal.append_sync_ms"] - L["wal.append_nosync_ms"]

	// server: what the batcher does with a group after the log has it.
	apply, err := connectit.NewStream(n, connectit.DefaultConfig())
	if err != nil {
		panic(err)
	}
	i := 0
	L["server.apply_ms_per_group"] = medianOf(tr, "ingest.UpdateBatch", min(101, len(edges)/group), func() {
		apply.UpdateBatch(edges[i*group : (i+1)*group])
		i++
	})
	apply.Close()
	rep.notef("layer panel ran on %d vertices, %d edges; WAL and apply probes use %d-edge groups", n, len(edges), group)
}

// split runs fn over [0,n) cut into one contiguous range per producer.
func split(n int, fn func(lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(n*w/producers, n*(w+1)/producers)
		}(w)
	}
	wg.Wait()
}
