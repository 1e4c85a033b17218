package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mecache/internal/fault"
)

// marketBody serves GET /v1/market from a daemon that has not started.
func marketBody(s *Server) []byte {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/market", nil))
	return rec.Body.Bytes()
}

// FuzzRestore writes arbitrary bytes as the snapshot file and builds a
// daemon over it. New must never panic. A snapshot it accepts, written
// back out and restored by a second New, must publish the same
// /v1/market bytes.
func FuzzRestore(f *testing.F) {
	// Seeds: a fresh daemon's network-only snapshot, and a populated one
	// with a failed cloudlet and providers waiting for its repair.
	cfg := testConfig(21)
	cfg.Policy = fault.PolicyWaitForRepair
	cfg.SnapshotPath = filepath.Join(f.TempDir(), "seed.json")
	for _, admissions := range []int{0, 6} {
		s, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		s.Start()
		ts := httptest.NewServer(s.Handler())
		for i := 0; i < admissions; i++ {
			admit(f, ts, drawProvider(cfg, s.View(), 4, i))
		}
		if admissions > 0 {
			postJSON(f, ts.URL+"/v1/admin/epoch", nil)
			for i, load := range s.View().Loads {
				if load > 0 {
					postJSON(f, ts.URL+"/v1/admin/fail", failRequest{Cloudlet: i})
					break
				}
			}
		}
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = s.Stop(ctx)
		cancel()
		if err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(cfg.SnapshotPath)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// The corruption of TestSnapshotRejectsCorrupt.
		f.Add(bytes.Replace(data, []byte(`"version":1`), []byte(`"version":9`), 1))
		if err := os.Remove(cfg.SnapshotPath); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte(`{garbage`))
	f.Add([]byte(`{"version":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := testConfig(21)
		cfg.Policy = fault.PolicyWaitForRepair
		cfg.SnapshotPath = filepath.Join(t.TempDir(), "snap.json")
		if err := os.WriteFile(cfg.SnapshotPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		first, err := New(cfg)
		if err != nil {
			return
		}
		if err := first.writeSnapshot(&first.st); err != nil {
			t.Fatalf("accepted snapshot does not write back: %v", err)
		}
		second, err := New(cfg)
		if err != nil {
			t.Fatalf("written-back snapshot rejected: %v", err)
		}
		if a, b := marketBody(first), marketBody(second); !bytes.Equal(a, b) {
			t.Fatalf("restored /v1/market differs:\n%s\nvs\n%s", a, b)
		}
	})
}
