package persist

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
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

// FuzzCheckpoint drives the checkpoint loader. Arbitrary file contents
// must make loadCheckpoint return an error or a graph whose image passes
// the image validation ImportImage runs, never panic. With fixCRC set
// the header's CRC is rewritten to match the fuzzed payload first, so
// mutations reach the section table and the image checks behind the
// checksum. The corpus is seeded with checkpoints writeCheckpoint wrote
// for small graphs. Run with
// `go test -run '^$' -fuzz '^FuzzCheckpoint$' ./persist` to explore.
func FuzzCheckpoint(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	seed := func(g *gedlib.Graph, names []string, rules string) {
		v, err := s.writeCheckpoint(dir, State{Graph: g, Names: names, Rules: rules}, 3, false)
		if err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, ckptName(v)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, false)
		f.Add(data, true)
		f.Add(data[:len(data)/2], true)
	}
	seed(gedlib.NewGraph(), nil, "")
	g := gedlib.NewGraph()
	a := g.AddNodeAttrs("person", map[gedlib.Attr]gedlib.Value{"name": gedlib.String("ada"), "age": gedlib.Int(36)})
	b := g.AddNode("city")
	g.AddEdge(a, "lives_in", b)
	g.AddEdge(b, "in", b)
	seed(g, []string{"ada", "london"}, "ged r on (x:person) { then x.age = 36 }")
	f.Add([]byte(ckptMagic), true)

	// One file per fuzzing process, rewritten for every input.
	path := filepath.Join(f.TempDir(), ckptName(1))
	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC && len(data) >= ckptHeaderBytesV1 {
			if start := binary.LittleEndian.Uint32(data[28:]); uint64(start) <= uint64(len(data)) {
				data = slices.Clone(data)
				binary.LittleEndian.PutUint32(data[24:], crc32.ChecksumIEEE(data[start:]))
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, _, _, err := s.loadCheckpoint(path)
		if err != nil {
			return
		}
		img := gedlib.ExportImage(st.Graph)
		back, err := gedlib.ImportImage(img)
		if err != nil {
			t.Fatalf("loaded graph's image fails validation: %v", err)
		}
		if back.NumNodes() != st.Graph.NumNodes() || back.NumEdges() != st.Graph.NumEdges() {
			t.Fatalf("image round trip changed the graph: %d/%d nodes, %d/%d edges",
				back.NumNodes(), st.Graph.NumNodes(), back.NumEdges(), st.Graph.NumEdges())
		}
	})
}
