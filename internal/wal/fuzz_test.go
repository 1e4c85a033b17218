package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// frameAt returns the payload of the frame at off in seg and the offset
// after it, or ok=false when no whole frame with a matching CRC sits there.
func frameAt(seg []byte, off int) (payload []byte, next int, ok bool) {
	if off < 0 || len(seg)-off < frameHeaderSize {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(seg[off : off+4]))
	want := binary.LittleEndian.Uint32(seg[off+4 : off+8])
	end := off + frameHeaderSize + n
	if end > len(seg) {
		return nil, 0, false
	}
	payload = seg[off+frameHeaderSize : end]
	if crc32.ChecksumIEEE(payload) != want {
		return nil, 0, false
	}
	return payload, end, true
}

// FuzzReplay writes arbitrary bytes as the only segment of a log and
// recovers it. Replay must never panic; every payload it delivers must be
// the next CRC-clean frame of the input after the header frame; and a log
// that replayed cleanly must take an append that a fresh Open and Replay
// deliver after the same payloads.
func FuzzReplay(f *testing.F) {
	hdr, err := json.Marshal(segHeader{Version: Version, Segment: 1})
	if err != nil {
		f.Fatal(err)
	}
	clean := appendFrame(nil, hdr)
	for _, r := range []string{"a", "bb", "ccc"} {
		clean = appendFrame(clean, []byte(r))
	}
	seeds := [][]byte{nil, appendFrame(nil, hdr), clean}
	// Torn tails (TestTornTailTruncated).
	seeds = append(seeds, append(append([]byte(nil), clean...), 1, 2, 3))
	past := binary.LittleEndian.AppendUint32(nil, 500)
	past = binary.LittleEndian.AppendUint32(past, 0xdead)
	seeds = append(seeds, append(append(append([]byte(nil), clean...), past...), "short"...))
	huge := binary.LittleEndian.AppendUint32(nil, 1<<30)
	seeds = append(seeds, append(append(append([]byte(nil), clean...), huge...), 0, 0, 0, 0))
	lastFlip := append([]byte(nil), clean...)
	lastFlip[len(lastFlip)-1] ^= 0xff
	seeds = append(seeds, lastFlip)
	// Interior corruption (TestInteriorCorruptionFatal).
	midFlip := append([]byte(nil), clean...)
	midFlip[len(midFlip)/2] ^= 0xff
	recFlip := append([]byte(nil), clean...)
	recFlip[len(appendFrame(appendFrame(nil, hdr), []byte("a")))+frameHeaderSize] ^= 0xff // inside "bb"
	seeds = append(seeds, midFlip, recFlip)
	// A future format version (TestVersionMismatchFatal).
	future, err := json.Marshal(segHeader{Version: Version + 1, Segment: 1})
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, appendFrame(appendFrame(nil, future), []byte("a")))
	for _, s := range seeds {
		f.Add(s)
	}

	noSync := Options{SyncFile: func(*os.File) error { return nil }}
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%016d.wal", uint64(1))), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, noSync)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		_, rerr := l.Replay(func(p []byte) error {
			got = append(got, bytes.Clone(p))
			return nil
		})
		_, off, ok := frameAt(seg, 0)
		for i, p := range got {
			var want []byte
			if ok {
				want, off, ok = frameAt(seg, off)
			}
			if !ok || !bytes.Equal(p, want) {
				t.Fatalf("payload %d %q is not the next CRC-clean frame of the input", i, p)
			}
		}
		if rerr != nil {
			l.Close()
			return
		}
		post := []byte("post-replay append")
		if err := l.Append(post); err != nil {
			t.Fatalf("append after a clean replay: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, noSync)
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		var again [][]byte
		if _, err := l2.Replay(func(p []byte) error {
			again = append(again, bytes.Clone(p))
			return nil
		}); err != nil {
			t.Fatalf("second replay: %v", err)
		}
		want := append(got, post)
		if len(again) != len(want) {
			t.Fatalf("second replay delivered %d payloads, want %d", len(again), len(want))
		}
		for i := range want {
			if !bytes.Equal(again[i], want[i]) {
				t.Fatalf("second replay payload %d = %q, want %q", i, again[i], want[i])
			}
		}
	})
}
