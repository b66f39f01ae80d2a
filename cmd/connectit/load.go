package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"time"

	"connectit"
)

// runLoad is the ingest load generator: it pushes -load-edges randomly
// generated edges in -load-batch batches at a running server — over the
// binary TCP protocol (-load, via DialIngest) or as JSON POSTs
// (-load-http, the comparison path) — and reports edges/sec plus the last
// committed LSN, so the two transports can be raced head to head against
// the same server. Batches are sorted by endpoint before sending, the
// shape the delta codec (and the WAL's group compression) exploits.
func runLoad() error {
	if *loadAddr != "" {
		return runLoadTCP()
	}
	return runLoadJSON()
}

// loadBatches invokes send once per generated batch. The universe comes
// from the server (TCP hello) or -n (JSON).
func loadBatches(universe int, send func(batch []connectit.Edge) error) (time.Duration, error) {
	rng := rand.New(rand.NewSource(int64(*seed)))
	batch := make([]connectit.Edge, 0, *loadBatch)
	start := time.Now()
	for sent := 0; sent < *loadEdges; {
		want := *loadBatch
		if rem := *loadEdges - sent; rem < want {
			want = rem
		}
		batch = batch[:0]
		for i := 0; i < want; i++ {
			u := uint32(rng.Intn(universe))
			v := uint32(rng.Intn(universe))
			batch = append(batch, connectit.Edge{U: u, V: v})
		}
		sort.Slice(batch, func(i, j int) bool {
			if batch[i].U != batch[j].U {
				return batch[i].U < batch[j].U
			}
			return batch[i].V < batch[j].V
		})
		if err := send(batch); err != nil {
			return 0, err
		}
		sent += len(batch)
	}
	return time.Since(start), nil
}

func runLoadTCP() error {
	c, err := connectit.DialIngest(*loadAddr)
	if err != nil {
		return err
	}
	universe := c.NumVertices()
	fmt.Printf("loading %d edges over binary tcp %s (universe %d, batch %d)\n", *loadEdges, *loadAddr, universe, *loadBatch)
	elapsed, err := loadBatches(universe, c.Send)
	if err != nil {
		c.Close()
		return err
	}
	lsn, err := c.Flush()
	if err != nil {
		c.Close()
		return err
	}
	st := c.Stats()
	elapsed = maxDuration(elapsed, time.Nanosecond)
	fmt.Printf("loaded %d edges in %v (%.2fM edges/s), last LSN %d\n",
		*loadEdges, elapsed.Round(time.Millisecond), float64(*loadEdges)/elapsed.Seconds()/1e6, lsn)
	fmt.Printf("client: %d frames acked, %d reconnects, %d retransmits, %d dial failures\n",
		st.AckedFrames, st.Reconnects, st.Retransmits, st.DialFailures)
	return c.Close()
}

// jsonRetryBudget bounds how long runLoadJSON keeps retrying one batch
// against a backpressuring (429) or degraded (503) server before giving
// up: transient stalls heal, a permanently stuck server still yields a
// one-line error.
const jsonRetryBudget = 2 * time.Minute

// retryDelay turns a 429/503 response into a backoff: the server's
// Retry-After header when it sends one (it knows its flush time and
// probe period), otherwise an exponential fallback from the attempt count.
func retryDelay(resp *http.Response, attempt int) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 && secs <= 3600 {
			return time.Duration(secs) * time.Second
		}
	}
	d := 50 * time.Millisecond << uint(attempt)
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

func runLoadJSON() error {
	universe := *n
	url := *loadURL + "/v1/update"
	fmt.Printf("loading %d edges over json %s (universe %d, batch %d)\n", *loadEdges, url, universe, *loadBatch)
	var body bytes.Buffer
	retries := 0
	elapsed, err := loadBatches(universe, func(batch []connectit.Edge) error {
		body.Reset()
		pairs := make([][2]uint32, len(batch))
		for i, e := range batch {
			pairs[i] = [2]uint32{e.U, e.V}
		}
		if err := json.NewEncoder(&body).Encode(map[string]any{"edges": pairs}); err != nil {
			return err
		}
		deadline := time.Now().Add(jsonRetryBudget)
		for attempt := 0; ; attempt++ {
			resp, err := http.Post(url, "application/json", bytes.NewReader(body.Bytes()))
			if err != nil {
				return err
			}
			switch resp.StatusCode {
			case http.StatusOK:
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				return nil
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				// Backpressure or degraded mode: both are the server asking
				// for patience, not rejecting the batch. Honor its hint and
				// resend the identical batch (unions are idempotent).
				delay := retryDelay(resp, attempt)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if time.Now().Add(delay).After(deadline) {
					return fmt.Errorf("POST /v1/update: server still refusing after %v of retries (%s)", jsonRetryBudget, resp.Status)
				}
				retries++
				time.Sleep(delay)
			default:
				msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
				resp.Body.Close()
				return fmt.Errorf("POST /v1/update: %s: %s", resp.Status, bytes.TrimSpace(msg))
			}
		}
	})
	if err != nil {
		return err
	}
	elapsed = maxDuration(elapsed, time.Nanosecond)
	fmt.Printf("loaded %d edges in %v (%.2fM edges/s, %d retried batches)\n",
		*loadEdges, elapsed.Round(time.Millisecond), float64(*loadEdges)/elapsed.Seconds()/1e6, retries)
	return nil
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
