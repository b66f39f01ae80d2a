package query

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// FuzzQueryLabels feeds NewLabelled arbitrary labelings, one little-endian
// uint32 per vertex. A labeling with a label outside [0, n) must panic
// naming the lowest such vertex; otherwise one that is not in star form
// must panic naming the lowest vertex whose label is not a root; any other
// must answer every counting query as the map-based oracle does.
func FuzzQueryLabels(f *testing.F) {
	for _, sh := range labelShapes {
		for _, n := range []int{1, 7, 64} {
			f.Add(labelBytes(sh.gen(n, 3)))
		}
	}
	f.Add(labelBytes([]uint32{1, 0, 2}))
	f.Add(labelBytes([]uint32{0, 0, 1}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 4
		labels := make([]uint32, n)
		for i := range labels {
			labels[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		want := ""
		for v, l := range labels {
			if int64(l) >= int64(n) {
				want = fmt.Sprintf("labels[%d] = %d is out of range [0, %d)", v, l, n)
				break
			}
		}
		if want == "" {
			for v, l := range labels {
				if labels[l] != l {
					want = starMessage(labels, v)
					break
				}
			}
		}
		e, msg := labelledOrPanic(labels)
		if want != "" {
			if !strings.Contains(msg, want) {
				t.Fatalf("got panic %q, want one containing %q", msg, want)
			}
			return
		}
		if e == nil {
			t.Fatalf("valid labeling %v panicked: %s", labels, msg)
		}
		checkEngine(t, e, labels, newCountingOracle(t, labels))
	})
}

func labelBytes(labels []uint32) []byte {
	b := make([]byte, 0, 4*len(labels))
	for _, l := range labels {
		b = binary.LittleEndian.AppendUint32(b, l)
	}
	return b
}
