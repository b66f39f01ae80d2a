package connectit

// Head-to-head ingest transport benchmarks for the binary fast path
// (DESIGN.md §13): the same pre-generated edge batches pushed through the
// JSON HTTP surface, the binary HTTP surface, and the pipelined binary TCP
// protocol against a live server, plus microbenchmarks of the wire codec
// itself. BENCH_* metrics are edges/s; allocs/op is the zero-copy claim —
// the binary paths must beat JSON on both. The bench-smoke CI job runs
// these at -benchtime=1x (the ^Benchmark(Stream|Query|IngestWire) grep).

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"testing"
	"time"

	"connectit/internal/wire"
)

const (
	benchWireVerts  = 1 << 16
	benchWireBatch  = 4096
	benchWireBursts = 16
)

// benchWireBatches generates deterministic sorted batches — the locality
// shape produced by any scan-ordered or pre-sorted producer, which is
// where delta coding pays.
func benchWireBatches() [][]Edge {
	rng := rand.New(rand.NewSource(42))
	out := make([][]Edge, benchWireBursts)
	for i := range out {
		batch := make([]Edge, benchWireBatch)
		for j := range batch {
			batch[j] = Edge{U: uint32(rng.Intn(benchWireVerts)), V: uint32(rng.Intn(benchWireVerts))}
		}
		sort.Slice(batch, func(a, b int) bool {
			if batch[a].U != batch[b].U {
				return batch[a].U < batch[b].U
			}
			return batch[a].V < batch[b].V
		})
		out[i] = batch
	}
	return out
}

func benchWireServer(b *testing.B) *Server {
	b.Helper()
	srv, err := NewServer(ServerOptions{
		Addr:             "127.0.0.1:0",
		IngestAddr:       "127.0.0.1:0",
		NumVertices:      benchWireVerts,
		SnapshotInterval: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Close(ctx)
	})
	return srv
}

func benchWirePost(b *testing.B, url, contentType string, body []byte) {
	b.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("POST: %s", resp.Status)
	}
}

// BenchmarkIngestWire races the three ingest transports against a live
// server with identical batches. Metric: end-to-end accepted edges/s.
func BenchmarkIngestWire(b *testing.B) {
	batches := benchWireBatches()
	perIter := float64(benchWireBursts * benchWireBatch)

	b.Run("json-http", func(b *testing.B) {
		srv := benchWireServer(b)
		url := "http://" + srv.Addr() + "/v1/update"
		bodies := make([][]byte, len(batches))
		for i, batch := range batches {
			pairs := make([][2]uint32, len(batch))
			for j, e := range batch {
				pairs[j] = [2]uint32{e.U, e.V}
			}
			bodies[i], _ = json.Marshal(map[string]any{"edges": pairs})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, body := range bodies {
				benchWirePost(b, url, "application/json", body)
			}
		}
		b.ReportMetric(perIter*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
	})

	b.Run("binary-http", func(b *testing.B) {
		srv := benchWireServer(b)
		url := "http://" + srv.Addr() + "/v1/update"
		bodies := make([][]byte, len(batches))
		for i, batch := range batches {
			bodies[i] = wire.AppendBlock(nil, batch)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, body := range bodies {
				benchWirePost(b, url, wire.ContentTypeEdges, body)
			}
		}
		b.ReportMetric(perIter*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
	})

	b.Run("binary-tcp", func(b *testing.B) {
		srv := benchWireServer(b)
		c, err := DialIngest(srv.IngestAddr())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, batch := range batches {
				if err := c.Send(batch); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := c.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(perIter*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
	})
}

// BenchmarkIngestWireCodec isolates the codec itself: delta encode and
// decode of one sorted batch (bytes/edge reported), plus the raw-fallback
// encode of an unsorted batch.
func BenchmarkIngestWireCodec(b *testing.B) {
	batches := benchWireBatches()
	sorted := batches[0]
	unsorted := make([]Edge, len(sorted))
	rng := rand.New(rand.NewSource(7))
	for i := range unsorted {
		unsorted[i] = Edge{U: uint32(rng.Uint32()) >> 4, V: uint32(rng.Uint32()) >> 4}
	}

	b.Run("encode-sorted", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = wire.AppendBlock(buf[:0], sorted)
		}
		b.ReportMetric(float64(len(buf))/float64(len(sorted)), "bytes/edge")
		b.ReportMetric(float64(len(sorted))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
	})

	b.Run("decode-sorted", func(b *testing.B) {
		block := wire.AppendBlock(nil, sorted)
		var buf []Edge
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			buf, _, err = wire.DecodeBlock(block, buf[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(sorted))*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
	})

	b.Run("encode-random-fallback", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = wire.AppendBlock(buf[:0], unsorted)
		}
		b.ReportMetric(float64(len(buf))/float64(len(unsorted)), "bytes/edge")
	})
}
