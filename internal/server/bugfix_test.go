package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mecache/internal/dynamic"
	"mecache/internal/mec"
	"mecache/internal/wal"
)

// TestQueuedExpiredCommandSkipsWAL pins the queued-expiry contract: a
// mutating command whose deadline fires while it is still queued must
// leave no trace — no WAL record, no market mutation — so its 503 means
// "certainly not applied". Before the claim CAS, the handler could return
// 503 while the loop, dequeuing moments later, still logged and applied
// the command behind the client's back.
func TestQueuedExpiredCommandSkipsWAL(t *testing.T) {
	cfg := testConfig(1)
	cfg.WALDir = filepath.Join(t.TempDir(), "wal")
	cfg.RequestTimeout = 100 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	admit(t, ts, drawProvider(cfg, s.View(), 7, 0)) // baseline: WAL record 1

	// Park the loop inside a command so the next admission expires while
	// still queued. The blocker carries no ctx, no WAL record, and a
	// buffered reply the test never reads.
	started := make(chan struct{})
	gate := make(chan struct{})
	s.cmds <- command{
		run: func(st *state) cmdResult {
			close(started)
			<-gate
			return cmdResult{status: http.StatusOK}
		},
		reply: make(chan cmdResult, 1),
	}
	<-started

	resp, data := postJSON(t, ts.URL+"/v1/providers", drawProvider(cfg, s.View(), 7, 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued-expired admission: status %d, want 503: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "not applied") {
		t.Fatalf("queued-expired admission should state it was not applied: %s", data)
	}

	// Release the loop: it dequeues the abandoned command, loses the claim
	// race, and must skip it entirely.
	close(gate)

	second := admit(t, ts, drawProvider(cfg, s.View(), 7, 2)) // WAL record 2
	if second.Active != 2 {
		t.Fatalf("expired admission mutated the market: %d active, want 2", second.Active)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}

	// The durable history must hold exactly the two acknowledged
	// admissions, with contiguous LSNs: the expired command appended
	// nothing.
	l, err := wal.Open(cfg.WALDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var ops []string
	if _, err := l.Replay(func(payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		ops = append(ops, fmt.Sprintf("%d:%s", rec.LSN, rec.Op))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(ops, ","), "1:admit,2:admit"; got != want {
		t.Fatalf("WAL holds %q, want %q (expired command must not be logged)", got, want)
	}
}

// TestStorageValidationCreatesNestedDirs pins the fail-fast half of boot
// validation: persistence paths with missing parents are created at New,
// so the first snapshot or WAL append can no longer be the first time a
// typo in -wal-dir surfaces.
func TestStorageValidationCreatesNestedDirs(t *testing.T) {
	base := t.TempDir()
	cfg := testConfig(1)
	cfg.WALDir = filepath.Join(base, "a", "b", "c", "wal")
	cfg.SnapshotPath = filepath.Join(base, "x", "y", "z", "snap.json")
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New with nested nonexistent dirs: %v", err)
	}
	for _, dir := range []string{cfg.WALDir, filepath.Dir(cfg.SnapshotPath)} {
		fi, err := os.Stat(dir)
		if err != nil || !fi.IsDir() {
			t.Errorf("New did not create %s: %v", dir, err)
		}
	}
	s.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cfg.SnapshotPath); err != nil {
		t.Errorf("final snapshot not written to pre-created dir: %v", err)
	}
}

// TestStorageValidationFailsFast pins the other half: an unusable
// persistence path is a structured startup error, not a latent
// first-write failure. A regular file in the directory chain makes the
// path unusable even for root (chmod-based unwritability is a no-op when
// tests run privileged).
func TestStorageValidationFailsFast(t *testing.T) {
	base := t.TempDir()
	blocker := filepath.Join(base, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(*Config)
		role   string
	}{
		{"wal dir through a file", func(c *Config) {
			c.WALDir = filepath.Join(blocker, "wal")
		}, "wal"},
		{"snapshot parent through a file", func(c *Config) {
			c.SnapshotPath = filepath.Join(blocker, "sub", "snap.json")
		}, "snapshot"},
		{"snapshot path is a directory", func(c *Config) {
			c.SnapshotPath = base
		}, "snapshot"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(1)
			tc.mutate(&cfg)
			_, err := New(cfg)
			if err == nil {
				t.Fatal("New accepted an unusable persistence path")
			}
			var se *StorageError
			if !errors.As(err, &se) {
				t.Fatalf("error %v is not a *StorageError", err)
			}
			if se.Role != tc.role {
				t.Errorf("StorageError role %q, want %q", se.Role, tc.role)
			}
			if !strings.Contains(err.Error(), "unusable") {
				t.Errorf("error message %q should say the path is unusable", err)
			}
		})
	}
}

// TestEpochAfterMarketEmptied pins the warm epoch across an emptied
// market. The last departure drops the market and the next admission
// builds a fresh one, while the epoch solve state keeps the dropped
// market's optimum. The fresh market's rows must not pair with the kept
// ones: had row stamps restarted with each market, B's row would carry A's
// stamp and the epoch would hand B the bin it solved for A.
func TestEpochAfterMarketEmptied(t *testing.T) {
	cfg := testConfig(61)
	cfg.Xi = 1 // every provider is pinned to Appro's placement
	cfg.MigrationAware = false
	s, ts := startServer(t, cfg)
	// coldEpoch is the placement a cold epoch gives p alone in a market.
	coldEpoch := func(p mec.Provider, epoch uint64) int {
		t.Helper()
		m, err := mec.NewMarket(s.net, []mec.Provider{p})
		if err != nil {
			t.Fatal(err)
		}
		next, _, err := dynamic.Reequilibrate(m, mec.Placement{mec.Remote}, dynamic.EpochOptions{
			Xi: cfg.Xi, Seed: cfg.Seed + epoch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return next[0]
	}
	epoch := func() int {
		t.Helper()
		if resp, data := postJSON(t, ts.URL+"/v1/admin/epoch", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("epoch: %d %s", resp.StatusCode, data)
		}
		return s.View().Providers[0].Placement
	}
	// B differs from A only where it attaches, so the two markets split
	// their cloudlets into the same slots and the epoch state repairs
	// rather than rebuilds. Most draws stay remote wherever they attach;
	// take the first pair whose cold epochs place them apart.
	var a, b mec.Provider
	found := false
	for i := 0; i < 20 && !found; i++ {
		a = drawProvider(cfg, s.View(), 61, i)
		b = a
		for b.AttachNode = 0; b.AttachNode < s.View().NumNodes; b.AttachNode++ {
			if coldEpoch(b, 2) != coldEpoch(a, 1) {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no pair of attachment nodes gives A and B different placements")
	}

	id := admit(t, ts, a).ID
	if got, want := epoch(), coldEpoch(a, 1); got != want {
		t.Fatalf("A's epoch placed it at %d, a cold epoch at %d", got, want)
	}
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/providers/%d", ts.URL, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent || s.View().Active != 0 {
		t.Fatalf("depart: status %d, %d still active", resp.StatusCode, s.View().Active)
	}
	admit(t, ts, b)
	if got, want := epoch(), coldEpoch(b, 2); got != want {
		t.Fatalf("B's epoch after the market emptied placed it at %d, a cold epoch at %d", got, want)
	}
}
