package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"connectit"
	"connectit/internal/wal"
	"connectit/internal/wire"
)

// flushIntervalMs is the server's default group-commit deadline, which the
// workload leaves alone: an ack waits half of it on average.
const flushIntervalMs = 2.0

// scrapeLayers turns the /metrics snapshots taken at the step boundaries
// into the server-side layer metrics, and fixes the group size the WAL and
// apply probes of the panel then use.
func (s *serve) scrapeLayers(rep *report) {
	if len(s.scrapes) != len(s.sched.steps)+1 {
		rep.errorf("/metrics: %d of %d scrapes", len(s.scrapes), len(s.sched.steps)+1)
		return
	}
	for _, m := range s.scrapes {
		if m == nil {
			rep.errorf("/metrics: a scrape failed")
			return
		}
	}
	delta := func(a, b map[string]float64, name string) float64 { return b[name] - a[name] }
	a, b := s.scrapes[refStep], s.scrapes[refStep+1]
	first, last := s.scrapes[0], s.scrapes[len(s.scrapes)-1]
	group := delta(a, b, "connectit_wal_appended_edges_total") / max(delta(a, b, "connectit_wal_appends_total"), 1)
	s.groupEdges = int(group)
	const connected = `{handler="connected"}`
	rep.add("server.group_edges_mean", group, "count")
	rep.add("server.syncs_per_s", delta(a, b, "connectit_wal_syncs_total")/s.sched.steps[refStep].dur.Seconds(), "1/s")
	rep.add("wal.bytes_per_edge", delta(first, last, "connectit_wal_bytes_total")/max(delta(first, last, "connectit_wal_appended_edges_total"), 1), "B")
	rep.add("server.handler_connected_ms", 1000*delta(first, last, "connectit_http_request_seconds_sum"+connected)/
		max(delta(first, last, "connectit_http_request_seconds_count"+connected), 1), "ms")
	rep.add("server.busy_acks", last["connectit_backpressure_total"], "count")
}

// layers measures what only this workload can: the other two ingest
// transports, the log's replay, graceful shutdown and recovery from its
// snapshot, and the cost stack of one ack. It runs after the panel, whose
// WAL and apply probes used the group size observed at the reference rate.
func (s *serve) layers(tr *tracer, rep *report) {
	L := rep.layers
	for _, m := range rep.native {
		if m.Name == "server.handler_connected_ms" {
			rep.add("server.read_overhead_ms", s.readP50-m.Value, "ms")
		}
	}
	// An ack at the reference rate waits, on average, half a flush interval
	// for its group to close, then for the group's decode, log append with
	// fsync, and apply. What is left is everything no probe covers yet:
	// loopback, scheduling, the batcher's own bookkeeping.
	group := float64(max(s.groupEdges, 1))
	decodeMs := L["wire.decode_ns_per_edge"] * group / 1e6
	stack := flushIntervalMs/2 + decodeMs + L["wal.append_sync_ms"] + L["server.apply_ms_per_group"]
	rep.add("server.unattributed_ms", s.ackP50-stack, "ms")
	rep.notef("ack cost stack at the reference rate: ½ flush %.3f + wire.decode %.3f + wal.append_sync %.3f + apply %.3f + unattributed %.3f = ack_p50_ms %.3f",
		flushIntervalMs/2, decodeMs, L["wal.append_sync_ms"], L["server.apply_ms_per_group"], s.ackP50-stack, s.ackP50)

	if s.ch == nil {
		return
	}
	// The two HTTP ingest transports, closed loop, one request at a time.
	client := &http.Client{Timeout: 5 * time.Second}
	post := func(name, ctype string, body []byte) {
		const reqs = 100
		ds := make([]time.Duration, 0, reqs)
		for i := 0; i < reqs; i++ {
			ds = append(ds, tr.timed(name, -1, int64(i), func() {
				resp, err := client.Post("http://"+s.ch.http+"/v1/update", ctype, bytes.NewReader(body))
				if err != nil {
					rep.errorf("%s: %v", name, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					rep.errorf("%s: %s", name, resp.Status)
				}
			}))
		}
		rep.add(name, median(msOf(ds)), "ms")
	}
	pairs := make([][2]uint32, 16)
	for i, e := range s.edges[:16] {
		pairs[i] = [2]uint32{e.U, e.V}
	}
	jsonBody, _ := json.Marshal(map[string]any{"edges": pairs})
	post("server.json_ack_p50_ms", "application/json", jsonBody)
	post("server.binhttp_ack_p50_ms", wire.ContentTypeEdges, wire.AppendBlock(nil, s.edges[:frameEdges]))

	// Replay alone: the log copied while the server is idle, opened and
	// decoded in-process, nothing applied.
	copyDir := filepath.Join(s.r.tmp, "wal-copy")
	if err := copyTree(s.walDir, copyDir); err != nil {
		rep.errorf("copying the log: %v", err)
	} else {
		var edges int
		d := tr.timed("wal.Open+Replay", -1, 0, func() {
			log, err := wal.Open(copyDir, wal.Options{NoSync: true})
			if err != nil {
				rep.errorf("wal.Open on the copy: %v", err)
				return
			}
			defer log.Close()
			if err := log.Replay(0, func(_ uint64, es []connectit.Edge) error { edges += len(es); return nil }); err != nil {
				rep.errorf("wal.Replay on the copy: %v", err)
			}
		})
		rep.add("wal.replay_ms", ms(d), "ms")
		rep.notef("wal.replay_ms decoded %d edges", edges)
	}

	// Graceful stop (drain, final snapshot, seal) and the boot that follows
	// it, which loads the snapshot instead of replaying the log.
	rep.add("server.shutdown_s", s.ch.signalAndWait(syscall.SIGINT).Seconds(), "s")
	d := tr.timed("server.recover(snapshot)", -1, 0, func() {
		if err := s.boot(false); err != nil {
			rep.errorf("restart after SIGINT: %v", err)
		}
	})
	rep.add("server.recover_snapshot_s", d.Seconds(), "s")
}

func copyTree(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return fmt.Errorf("copy %s: %w", e.Name(), err)
		}
	}
	return nil
}
