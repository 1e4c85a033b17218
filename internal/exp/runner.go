package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"mecache/internal/parallel"
)

// Runner executes an expanded matrix: one mecd child process per combo,
// driven by mecload child processes, scraped over HTTP, archived under
// Out/Stamp/<slug>/. Combos run independently — a combo whose daemon dies
// is recorded as failed in the index and its siblings are unaffected.
type Runner struct {
	// Mecd and Mecload are paths to the built binaries. BuildBinaries
	// produces them from the module source when the caller has none.
	Mecd    string
	Mecload string
	// Out is the results root; the run writes Out/Stamp/.
	Out string
	// Stamp names this run's directory (a timestamp in the CLI; fixed
	// strings in tests and re-runs).
	Stamp string
	// Parallel is the worker count for combo execution (internal/parallel
	// semantics: <1 = NumCPU, 1 = serial). Any width yields byte-identical
	// deterministic results.
	Parallel int
	// LoadWorkers is the mecload concurrency per combo. The default 1
	// (serial closed loop) is what makes final placements and summary
	// counts bit-reproducible; raise it only to trade determinism of
	// placements for speed.
	LoadWorkers int
	// ComboTimeout bounds one combo end to end (default 5m).
	ComboTimeout time.Duration
	// Logf, when set, receives one progress line per combo.
	Logf func(format string, args ...any)

	// afterBoot is a test hook that runs right after a combo's daemon
	// becomes ready — tests use it to kill the child and prove failure
	// isolation. Never set in production paths.
	afterBoot func(p Plan, d *daemon) error
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

func (r *Runner) comboTimeout() time.Duration {
	if r.ComboTimeout > 0 {
		return r.ComboTimeout
	}
	return 5 * time.Minute
}

func (r *Runner) loadWorkers() int {
	if r.LoadWorkers > 0 {
		return r.LoadWorkers
	}
	return 1
}

// Run expands and executes the matrix, writes every per-combo artifact
// plus index.json and table.txt, and returns the index. The error is
// non-nil only for harness-level failures (bad matrix, unwritable results
// root); per-combo failures are data, not errors.
func (r *Runner) Run(m Matrix) (*Index, error) {
	m.Defaults()
	combos, err := m.Expand()
	if err != nil {
		return nil, err
	}
	if r.Stamp == "" {
		return nil, fmt.Errorf("exp: Runner.Stamp must be set")
	}
	if r.Mecd == "" || r.Mecload == "" {
		return nil, fmt.Errorf("exp: Runner needs mecd and mecload binary paths (see BuildBinaries)")
	}
	root := filepath.Join(r.Out, r.Stamp)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("exp: create results root: %w", err)
	}

	results := make([]ComboResult, len(combos))
	perr := parallel.Run(r.Parallel, len(combos), func(i int) error {
		results[i] = r.runCombo(root, combos[i])
		st := results[i].Status
		r.logf("combo %d/%d %s: %s", i+1, len(combos), combos[i].Slug(), st)
		return nil
	})
	if perr != nil {
		return nil, perr
	}

	idx := buildIndex(m, r.Stamp, results)
	if err := writeJSONAtomic(filepath.Join(root, "index.json"), idx); err != nil {
		return nil, err
	}
	if err := writeFileAtomic(filepath.Join(root, "table.txt"), renderTable(idx)); err != nil {
		return nil, err
	}
	return idx, nil
}

// daemon is one booted mecd child.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	logFile *os.File
	waitc   chan error
}

// bootDaemon starts a mecd child for the plan with fresh snapshot/WAL
// directories under scratch, its log in comboDir/mecd.log, and waits for
// the readiness contract (-port-file appears only once /healthz serves
// 200).
func (r *Runner) bootDaemon(p Plan, scratch, comboDir string, deadline time.Time) (*daemon, error) {
	portFile := filepath.Join(scratch, "port")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-port-file", portFile,
		"-size", strconv.Itoa(p.Combo.Size),
		"-seed", strconv.FormatUint(p.DaemonSeed, 10),
		"-xi", strconv.FormatFloat(p.Combo.Policy.Xi, 'g', -1, 64),
		"-policy", p.Combo.Policy.Failover,
		"-snapshot", filepath.Join(scratch, "snap", "market.json"),
		"-wal-dir", filepath.Join(scratch, "wal"),
		"-log-format", "json",
	}
	if p.Combo.Policy.MigrationAware {
		args = append(args, "-migration-aware")
	}
	if p.Combo.Tenants > 1 {
		// Multi-tenant combos hydrate lazily: tenant t<k> exists the
		// moment mecload first addresses it.
		args = append(args, "-preload-tenants", "none")
	}
	logFile, err := os.Create(filepath.Join(comboDir, "mecd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(r.Mecd, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start mecd: %w", err)
	}
	d := &daemon{cmd: cmd, logFile: logFile, waitc: make(chan error, 1)}
	go func() { d.waitc <- cmd.Wait() }()

	for {
		if data, err := os.ReadFile(portFile); err == nil && len(data) > 0 {
			d.url = "http://" + string(data)
			return d, nil
		}
		select {
		case err := <-d.waitc:
			d.waitc <- err
			d.logFile.Close()
			return d, fmt.Errorf("mecd exited before serving: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return d, fmt.Errorf("mecd not ready before combo deadline")
		}
	}
}

// stop shuts the daemon down gracefully and requires a clean exit. The
// exit marker is put back on waitc so a later alive() check still sees the
// child as exited.
func (d *daemon) stop(timeout time.Duration) error {
	defer d.logFile.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal mecd: %w", err)
	}
	select {
	case err := <-d.waitc:
		d.waitc <- err
		if err != nil {
			return fmt.Errorf("mecd exit: %w", err)
		}
		return nil
	case <-time.After(timeout):
		d.cmd.Process.Kill()
		err := <-d.waitc
		d.waitc <- err
		return fmt.Errorf("mecd did not exit within %v of SIGTERM", timeout)
	}
}

// kill tears the daemon down abruptly (error paths only).
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.waitc
	d.waitc <- nil
	d.logFile.Close()
}

// alive reports whether the child has not exited yet.
func (d *daemon) alive() bool {
	select {
	case err := <-d.waitc:
		d.waitc <- err
		return false
	default:
		return true
	}
}

// runCombo executes one combo end to end and never returns a Go error:
// every failure is recorded in the result so sibling combos keep running.
func (r *Runner) runCombo(root string, c Combo) ComboResult {
	res := ComboResult{Slug: c.Slug(), Combo: c, Status: StatusFailed}
	started := time.Now()
	deadline := started.Add(r.comboTimeout())
	comboDir := filepath.Join(root, res.Slug)
	if err := os.MkdirAll(comboDir, 0o755); err != nil {
		res.Error = fmt.Sprintf("create combo dir: %v", err)
		return res
	}
	fail := func(format string, args ...any) ComboResult {
		res.Error = fmt.Sprintf(format, args...)
		res.WallClock.TotalSeconds = time.Since(started).Seconds()
		// Archive what exists even for failed combos: config.json plus a
		// failure-shaped summary.json, so the directory set is uniform.
		writeJSONAtomic(filepath.Join(comboDir, "config.json"), res.Combo)
		writeJSONAtomic(filepath.Join(comboDir, "summary.json"), Summary{
			Slug: res.Slug, Status: res.Status, Error: res.Error, WallClock: res.WallClock,
		})
		return res
	}

	scratch, err := os.MkdirTemp("", "mecexp-")
	if err != nil {
		return fail("create scratch dir: %v", err)
	}
	defer os.RemoveAll(scratch)

	// Seeds derive before boot; the fault picks need the DC count, so the
	// full plan derives right after the market facts are known.
	daemonSeed, _ := c.Seeds()
	d, err := r.bootDaemon(Plan{Combo: c, Slug: res.Slug, DaemonSeed: daemonSeed}, scratch, comboDir, deadline)
	if err != nil {
		return fail("boot: %v", err)
	}
	defer func() {
		if d.alive() {
			d.kill()
		}
	}()

	facts, err := fetchMarketFacts(d.url, c.Tenants)
	if err != nil {
		return fail("market facts: %v", err)
	}
	plan, err := NewPlan(c, facts.NumDCs)
	if err != nil {
		return fail("%v", err)
	}
	if err := writeJSONAtomic(filepath.Join(comboDir, "config.json"), plan); err != nil {
		return fail("write config.json: %v", err)
	}

	if r.afterBoot != nil {
		if err := r.afterBoot(plan, d); err != nil {
			return fail("afterBoot hook: %v", err)
		}
	}

	loads, err := r.drive(plan, d, comboDir, deadline)
	if err != nil {
		return fail("drive load: %v", err)
	}

	scrape, err := scrapeDaemon(d.url, plan, comboDir)
	if err != nil {
		return fail("scrape: %v", err)
	}

	if err := d.stop(30 * time.Second); err != nil {
		return fail("shutdown: %v", err)
	}

	res.Status = StatusOK
	res.Deterministic = buildDeterministic(plan, loads, scrape)
	res.WallClock = buildWallClock(started, loads, scrape)
	sum := Summary{
		Slug:          res.Slug,
		Status:        res.Status,
		Config:        plan,
		Deterministic: res.Deterministic,
		WallClock:     res.WallClock,
	}
	if err := writeJSONAtomic(filepath.Join(comboDir, "summary.json"), sum); err != nil {
		res.Status = StatusFailed
		res.Error = fmt.Sprintf("write summary.json: %v", err)
	}
	return res
}

// marketFacts is the slice of GET /v1/market the planner needs.
type marketFacts struct {
	NumDCs       int `json:"numDCs"`
	NumNodes     int `json:"numNodes"`
	NumCloudlets int `json:"numCloudlets"`
}

// apiBase returns the API prefix for tenant k of a combo with the given
// tenant count (the bare /v1 API when the combo is single-tenant).
func apiBase(url string, tenants, k int) string {
	if tenants <= 1 {
		return url + "/v1"
	}
	return fmt.Sprintf("%s/v1/t/t%d", url, k)
}

func fetchMarketFacts(url string, tenants int) (marketFacts, error) {
	var f marketFacts
	err := getJSON(apiBase(url, tenants, 0)+"/market", &f)
	if err != nil {
		return f, err
	}
	if f.NumDCs <= 0 || f.NumNodes <= 0 {
		return f, fmt.Errorf("implausible market: %d DCs, %d nodes", f.NumDCs, f.NumNodes)
	}
	return f, nil
}

func getJSON(url string, v any) error {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func postJSON(url string, body any) error {
	return postJSONTraced(url, body, "")
}

// postJSONTraced is postJSON carrying a W3C traceparent header. The manual
// epoch posts use it so each re-equilibration records a whole-epoch span and
// feeds the mecd_span_seconds{stage="epoch"} histogram the scrape
// summarizes into wallClock.epoch.
func postJSONTraced(url string, body any, traceparent string) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("POST %s: %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
