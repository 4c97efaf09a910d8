package persist

import (
	"testing"
	"time"

	"gedlib"
)

// walRecords builds one record of each kind from the fuzzed fields and
// returns their payloads with the TailRecords they must decode to.
func walRecords(ts int64, epoch, version uint64, s string) ([][]byte, []TailRecord) {
	d := &gedlib.Delta{
		FromVersion: version,
		ToVersion:   version + 3,
		Nodes:       []gedlib.NodeAdd{{ID: gedlib.NodeID(version % 1000), Label: gedlib.Label(s)}},
		Edges:       []gedlib.GraphEdge{{Src: 1, Label: gedlib.Label(s), Dst: gedlib.NodeID(epoch % 1000)}},
		Attrs: []gedlib.AttrWrite{
			{Node: 2, Attr: gedlib.Attr(s), Value: gedlib.String(s)},
			{Node: 3, Attr: "n", Value: gedlib.Number(float64(ts))},
		},
	}
	names := []string{s}
	at := time.Unix(0, ts)
	src := s
	payloads := [][]byte{
		encodeDelta(ts, epoch, d, names),
		encodeRules(ts, epoch, version, s),
		encodeEpochBump(ts, epoch, version),
	}
	want := []TailRecord{
		{Version: d.ToVersion, Epoch: epoch, AppendedAt: at, Delta: d, Names: names},
		{Version: version, Epoch: epoch, AppendedAt: at, Rules: &src},
		{Version: version, Epoch: epoch, AppendedAt: at, EpochBump: true},
	}
	return payloads, want
}

// sameRecord reports whether two decoded records carry the same data.
func sameRecord(a, b TailRecord) bool {
	if a.Version != b.Version || a.Epoch != b.Epoch || !a.AppendedAt.Equal(b.AppendedAt) ||
		a.EpochBump != b.EpochBump || (a.Rules == nil) != (b.Rules == nil) || (a.Delta == nil) != (b.Delta == nil) {
		return false
	}
	if a.Rules != nil && *a.Rules != *b.Rules {
		return false
	}
	if a.Delta == nil {
		return true
	}
	da, db := a.Delta, b.Delta
	if da.FromVersion != db.FromVersion || da.ToVersion != db.ToVersion ||
		len(da.Nodes) != len(db.Nodes) || len(da.Edges) != len(db.Edges) || len(da.Attrs) != len(db.Attrs) ||
		len(a.Names) != len(b.Names) {
		return false
	}
	for i := range da.Nodes {
		if da.Nodes[i] != db.Nodes[i] || a.Names[i] != b.Names[i] {
			return false
		}
	}
	for i := range da.Edges {
		if da.Edges[i] != db.Edges[i] {
			return false
		}
	}
	for i := range da.Attrs {
		wa, wb := da.Attrs[i], db.Attrs[i]
		if wa.Node != wb.Node || wa.Attr != wb.Attr || !wa.Value.Equal(wb.Value) {
			return false
		}
	}
	return true
}

// FuzzWALRecord drives the WAL reader. On arbitrary bytes scanFrames
// and decodeRecord must never panic, and the valid prefix scanFrames
// reports must lie within the input and re-scan as whole frames. Frames
// built by the encoders from the fuzzed fields must decode back to the
// records they encode. Run with
// `go test -run '^$' -fuzz '^FuzzWALRecord$' ./persist` to explore; the
// seed corpus runs under plain `go test`.
func FuzzWALRecord(f *testing.F) {
	seed := func(ts int64, epoch, version uint64, s string) {
		payloads, _ := walRecords(ts, epoch, version, s)
		var log []byte
		for _, p := range payloads {
			log = append(log, frame(p)...)
		}
		f.Add(log, ts, epoch, version, s)
		f.Add(log[:len(log)-3], ts, epoch, version, s)
		for _, p := range payloads {
			f.Add(frame(p), ts, epoch, version, s)
			f.Add(frame(p[:len(p)/2]), ts, epoch, version, s)
		}
	}
	seed(1_700_000_000_000_000_000, 0, 0, "")
	seed(-1, 7, 1<<40, "person")
	seed(42, 1<<63, 12, "ged r on (x:a) { then x.k = 1 }")
	f.Add([]byte{}, int64(0), uint64(0), uint64(0), "")
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, int64(0), uint64(0), uint64(0), "")

	f.Fuzz(func(t *testing.T, b []byte, ts int64, epoch, version uint64, s string) {
		// Arbitrary bytes: no panic, and the valid prefix is whole frames.
		valid, _, err := scanFrames(b, func(p []byte) error {
			decodeRecord(p)
			return nil
		})
		if err != nil {
			t.Fatalf("scan with a nil-returning callback failed: %v", err)
		}
		if valid < 0 || valid > len(b) {
			t.Fatalf("valid prefix %d outside input of %d bytes", valid, len(b))
		}
		again, corrupt, _ := scanFrames(b[:valid], func([]byte) error { return nil })
		if again != valid || corrupt {
			t.Fatalf("valid prefix %d re-scans to %d (corrupt %v)", valid, again, corrupt)
		}

		// Encoded records round-trip through the framing and the decoder.
		payloads, want := walRecords(ts, epoch, version, s)
		var log []byte
		for _, p := range payloads {
			log = append(log, frame(p)...)
		}
		var got []TailRecord
		valid, corrupt, err = scanFrames(log, func(p []byte) error {
			tr, err := decodeRecord(p)
			got = append(got, tr)
			return err
		})
		if err != nil || corrupt || valid != len(log) {
			t.Fatalf("encoded log: valid %d of %d, corrupt %v, err %v", valid, len(log), corrupt, err)
		}
		for i := range want {
			if !sameRecord(got[i], want[i]) {
				t.Fatalf("record %d decoded to %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}
