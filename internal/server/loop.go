package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"mecache/internal/dynamic"
	"mecache/internal/fault"
	"mecache/internal/game"
	"mecache/internal/mec"
	"mecache/internal/obs"
)

// state is the daemon's market state. It is owned exclusively by the event
// loop goroutine: every mutation arrives as a command over the channel, so
// no lock ever guards it. Reads go through the published View instead.
type state struct {
	// m is the live market over the active providers; nil while the market
	// is empty (mec.Market requires at least one provider).
	m  *mec.Market
	pl mec.Placement
	// ls mirrors pl's per-cloudlet loads and is delta-updated on every
	// placement change (setPl), so admissions, failovers, and epochs never
	// rebuild loads from the full placement. Nil whenever m is nil.
	ls *game.LoadState
	// ids maps market index -> public provider id; byID is the inverse.
	ids  []int64
	byID map[int64]int
	// waiting/waitingFor track providers parked by PolicyWaitForRepair.
	waiting    []bool
	waitingFor []int
	// failed mirrors which cloudlets are administratively down.
	failed []bool

	// lsn is the write-ahead log sequence number of the last logged
	// command (0 when nothing was ever logged). Snapshots carry it so
	// recovery can skip WAL records the snapshot already contains.
	lsn uint64

	nextID   int64
	epochs   uint64
	accepted uint64
	rejected uint64
	departed uint64

	failovers  uint64
	failbacks  uint64
	outages    uint64
	repairs    uint64
	reconfigs  uint64
	suppressed uint64
	migCost    float64

	// lastEpochErr records the most recent background-epoch failure for the
	// health endpoint; cleared by the next successful epoch.
	lastEpochErr string

	// solve carries the warm-start state across this market's epochs (the
	// kept transport optimum). Loop-owned like everything else here; epoch
	// outcomes are byte-identical with or without it.
	solve dynamic.EpochSolveState
}

// setPl moves provider idx to strategy c, keeping the load state in
// lockstep with the placement. Every placement change funnels through here.
func (st *state) setPl(idx, c int) {
	if st.pl[idx] == c {
		return
	}
	st.ls.Move(idx, st.pl[idx], c)
	st.pl[idx] = c
}

// cmdResult is what a command hands back to its waiting HTTP handler.
type cmdResult struct {
	status int
	body   any
	err    error
	// retryAfter, when positive, becomes a Retry-After header (seconds):
	// the shed path's backoff hint.
	retryAfter int
}

// command pairs a state mutation with the channel its result travels back
// on. reply is buffered (size 1) so the loop never blocks on a handler.
// rec, when non-nil, is written to the WAL before run executes; ctx, when
// non-nil, lets the loop skip commands whose caller already gave up.
//
// claimed arbitrates the race between the loop dequeuing the command and
// the caller's deadline expiring while it is still queued: exactly one
// side wins the CAS. If the caller wins, the loop must skip the command
// entirely — no WAL append, no state mutation — so a deadline-expiry 503
// means "certainly not applied", never "maybe applied behind your back".
// If the loop wins, the caller waits for the real reply instead.
type command struct {
	ctx     context.Context
	rec     *walRecord
	run     func(st *state) cmdResult
	reply   chan cmdResult
	claimed *atomic.Bool
	// tc is the sampled request's trace context (nil for untraced
	// commands): the loop decomposes the command into queue-wait, WAL,
	// apply, and publish child spans under tc.root.
	tc *traceCtx
}

// abandoned reports whether the caller gave up on this command before the
// loop claimed it. The loop calls this exactly once per dequeued command;
// a true return means the command must leave no trace.
func (c *command) loopClaims() bool {
	return c.claimed == nil || c.claimed.CompareAndSwap(false, true)
}

// errorf builds an error result.
func errorf(status int, format string, args ...any) cmdResult {
	return cmdResult{status: status, err: fmt.Errorf(format, args...)}
}

// loop is the single writer. It applies commands in arrival order —
// writing each mutating command to the WAL before applying it — runs the
// re-equilibration epoch on the ticker, publishes a fresh read View after
// every mutation, and writes the final snapshot (compacting the WAL) on
// graceful shutdown. Kill skips the snapshot and compaction, leaving
// recovery to the snapshot + WAL-replay path — a crash, on purpose.
func (s *Server) loop() {
	defer func() {
		s.closeWAL()
		close(s.done)
	}()
	var tick <-chan time.Time
	if s.cfg.EpochInterval > 0 {
		t := time.NewTicker(s.cfg.EpochInterval)
		defer t.Stop()
		tick = t.C
	}
	// pending holds one batch's deferred replies; reused across wake-ups so
	// the steady state allocates nothing. tc rides along so traced commands
	// can attribute the batch's shared publish cost after it happens.
	type reply struct {
		ch  chan cmdResult
		res cmdResult
		tc  *traceCtx
	}
	pending := make([]reply, 0, cap(s.cmds)+1)
	for {
		select {
		case <-s.killing:
			// Simulated crash: answer queued commands, persist nothing.
			for {
				select {
				case c := <-s.cmds:
					c.reply <- errorf(http.StatusServiceUnavailable, "server: killed")
				default:
					return
				}
			}
		case <-s.stopping:
			// Drain commands that raced with shutdown so no handler hangs.
			for {
				select {
				case c := <-s.cmds:
					c.reply <- errorf(http.StatusServiceUnavailable, "server: shutting down")
				default:
					if s.cfg.SnapshotPath != "" {
						if s.stopErr = s.writeSnapshot(&s.st); s.stopErr != nil {
							s.mSnapErrs.Inc()
							s.log.Error("final snapshot failed", "path", s.cfg.SnapshotPath, "err", s.stopErr)
						} else {
							s.compactWAL()
						}
					}
					return
				}
			}
		case c := <-s.cmds:
			// Batched pass: apply the command and then drain the burst that
			// accumulated behind it, publishing the read View once for the
			// whole batch. N queued admissions mutate the same persistent
			// LoadState back to back and pay for one View rebuild (one
			// ProviderCosts/Loads walk) instead of N. Replies are held until
			// after the publish so an acknowledged admission is always
			// visible to the client's next read. The drain is bounded by the
			// queue capacity so stop, kill, and the epoch ticker are never
			// starved by a continuous stream.
			pending = pending[:0]
			pending = append(pending, reply{c.reply, s.execCommand(c), c.tc})
		drain:
			for len(pending) <= cap(s.cmds) {
				select {
				case c2 := <-s.cmds:
					pending = append(pending, reply{c2.reply, s.execCommand(c2), c2.tc})
				default:
					break drain
				}
			}
			pubStart := time.Now()
			s.publish(&s.st)
			pubDur := time.Since(pubStart).Seconds()
			for _, p := range pending {
				if p.tc != nil {
					// The View rebuild is batched, so every traced command in
					// the batch carries the same publish child span: that IS
					// the cost attribution — N commands shared one rebuild.
					s.recordSpan(obs.Span{
						Parent: p.tc.root, Trace: p.tc.trace, Stage: obs.StagePublish,
						Start: pubStart, Duration: pubDur,
					})
				}
				p.ch <- p.res
			}
		case <-tick:
			// Background epochs mutate state like any command, so they are
			// WAL-logged like any command; their position in the log fixes
			// their position in the deterministic replay order.
			//
			// No HTTP request carries a trace into a ticker epoch, so the
			// loop mints one: the trace ID derives from the seed and a local
			// counter (reproducible identity, like mecload's minting), the
			// root span is the whole epoch, and curTrace/curParent let
			// epochCmd attach its solve and snapshot children.
			var (
				epochTrace string
				epochRoot  uint64
				epochStart time.Time
			)
			if s.spans.Enabled() {
				epochTrace = obs.MintTraceID(s.cfg.Seed^0x5ead, s.spanSeq.Add(1))
				epochRoot = s.spans.StartID()
				s.curTrace, s.curParent = epochTrace, epochRoot
				epochStart = time.Now()
			}
			s.inTickerEpoch = true
			if err := s.logCommand(&walRecord{Op: opEpoch}); err != nil {
				s.st.lastEpochErr = err.Error()
				s.mEpochErrs.Inc()
				s.log.Error("background epoch not logged", "err", err)
			} else if res := s.epochCmd(&s.st); res.err != nil {
				// Background epochs have no caller to report to; surface the
				// failure on the health endpoint via the view, the log, and
				// the error counter.
				s.st.lastEpochErr = res.err.Error()
				s.mEpochErrs.Inc()
				s.log.Error("background epoch failed", "epoch", s.st.epochs, "err", res.err)
			}
			s.inTickerEpoch = false
			if epochRoot != 0 {
				s.curTrace, s.curParent = "", 0
				s.recordSpan(obs.Span{
					ID: epochRoot, Trace: epochTrace, Stage: obs.StageEpoch,
					Start: epochStart, Duration: time.Since(epochStart).Seconds(),
					Attrs: []obs.Attr{obs.Int64("epoch", int64(s.st.epochs))},
				})
			}
			s.publish(&s.st)
		}
	}
}

// execCommand applies one dequeued command — claim, deadline check, WAL
// append, run — and returns the reply to send after the batch publishes.
// It never publishes the View itself; the loop does that once per batch.
//
// For a traced command (c.tc non-nil) each phase becomes a child span of
// the request root: queue wait from the enqueue timestamp, the WAL write
// and fsync from the durations the OnAppend/OnSync hooks captured, and the
// command function as the apply span. curTrace/curParent are set around
// c.run so the command function can hang its own children (best-response,
// epoch solve) off the apply span without a signature change — safe
// because only the loop goroutine reads or writes them.
func (s *Server) execCommand(c command) cmdResult {
	if !c.loopClaims() {
		// The caller already gave up (deadline expired while queued) and
		// won the claim: the command must leave no trace — no WAL record,
		// no state mutation — so its 503 means "certainly not applied".
		return errorf(http.StatusServiceUnavailable, "server: abandoned before execution")
	}
	if c.ctx != nil && c.ctx.Err() != nil {
		// The deadline expired but the caller has not noticed yet: it will
		// lose the claim race and wait for this reply. Skipping here keeps
		// the same contract — an expired command is never logged or applied.
		return errorf(http.StatusServiceUnavailable,
			"server: deadline expired before execution (not applied): %v", c.ctx.Err())
	}
	tc := c.tc
	if tc != nil {
		now := time.Now()
		s.recordSpan(obs.Span{
			Parent: tc.root, Trace: tc.trace, Stage: obs.StageQueueWait,
			Start: tc.enq, Duration: now.Sub(tc.enq).Seconds(),
		})
		// Sentinel the hook outputs so only the phases this append actually
		// performed (a "off"-policy append never fsyncs) become spans.
		s.lastAppendSec, s.lastSyncSec = -1, -1
	}
	if err := s.logCommand(c.rec); err != nil {
		// The mutation is not durable, so it must not apply.
		s.log.Error("wal append failed", "op", c.rec.Op, "err", err)
		return errorf(http.StatusServiceUnavailable, "server: write-ahead log: %v", err)
	}
	if tc == nil {
		return c.run(&s.st)
	}
	if walDone := time.Now(); s.lastAppendSec >= 0 || s.lastSyncSec >= 0 {
		// The hooks measured durations, not timestamps; reconstruct the
		// starts by walking back from the append's end (write then fsync,
		// back to back inside wal.Append).
		if s.lastAppendSec >= 0 {
			start := walDone.Add(-time.Duration((s.lastAppendSec + math.Max(s.lastSyncSec, 0)) * float64(time.Second)))
			s.recordSpan(obs.Span{
				Parent: tc.root, Trace: tc.trace, Stage: obs.StageWALAppend,
				Start: start, Duration: s.lastAppendSec,
			})
		}
		if s.lastSyncSec >= 0 {
			start := walDone.Add(-time.Duration(s.lastSyncSec * float64(time.Second)))
			s.recordSpan(obs.Span{
				Parent: tc.root, Trace: tc.trace, Stage: obs.StageWALFsync,
				Start: start, Duration: s.lastSyncSec,
			})
		}
	}
	applyID := s.spans.StartID()
	s.curTrace, s.curParent = tc.trace, applyID
	applyStart := time.Now()
	res := c.run(&s.st)
	s.curTrace, s.curParent = "", 0
	s.recordSpan(obs.Span{
		ID: applyID, Parent: tc.root, Trace: tc.trace, Stage: obs.StageApply,
		Start: applyStart, Duration: time.Since(applyStart).Seconds(),
	})
	return res
}

// do submits a command and waits for its result, the caller's deadline, or
// shutdown. The queue is bounded: when it is full the command is shed
// immediately with 429 + Retry-After rather than blocking the handler —
// under overload the daemon degrades by refusing work it cannot absorb,
// never by queueing without bound.
//
// A 429 means the command was certainly not applied, and so does a 503
// for a deadline expiry: the claim CAS guarantees that when the deadline
// fires while the command is still queued, the loop will skip it without
// logging or applying it. If the loop claimed the command first, the
// caller waits for the real reply instead of reporting expiry.
func (s *Server) do(ctx context.Context, rec *walRecord, run func(st *state) cmdResult) cmdResult {
	if ctx != nil && s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	c := command{ctx: ctx, rec: rec, run: run, reply: make(chan cmdResult, 1), claimed: new(atomic.Bool)}
	if tc := traceCtxFrom(ctx); tc != nil {
		// Stamp the enqueue time here, not in the middleware: queue wait
		// starts when the command can first be dequeued, after decode and
		// validation, so the queue_wait span measures the queue, not the
		// handler's preamble.
		tc.enq = time.Now()
		c.tc = tc
	}
	select {
	case s.cmds <- c:
	case <-s.done:
		return errorf(http.StatusServiceUnavailable, "server: not running")
	default:
		s.mShed.Inc()
		return shedResult(cap(s.cmds))
	}
	var expired <-chan struct{}
	if ctx != nil {
		expired = ctx.Done()
	}
	select {
	case r := <-c.reply:
		return r
	case <-expired:
		if c.claimed.CompareAndSwap(false, true) {
			// We won the claim: the loop has not started this command and,
			// on dequeue, will drop it without a WAL append or mutation.
			return errorf(http.StatusServiceUnavailable,
				"server: deadline expired while queued (not applied): %v", ctx.Err())
		}
		// The loop claimed it first — it is executing right now, so the
		// authoritative reply is imminent. Returning it beats inventing an
		// ambiguous timeout for work that actually happened.
		select {
		case r := <-c.reply:
			return r
		case <-s.done:
			return errorf(http.StatusServiceUnavailable, "server: shut down mid-command")
		}
	case <-s.done:
		// The loop may have answered just before exiting.
		select {
		case r := <-c.reply:
			return r
		default:
			return errorf(http.StatusServiceUnavailable, "server: shut down while request was queued")
		}
	}
}

// admitResponse is the body returned by POST /v1/providers.
type admitResponse struct {
	ID         int64   `json:"id"`
	Placement  int     `json:"placement"`
	Cost       float64 `json:"cost"`
	SocialCost float64 `json:"socialCost"`
	Active     int     `json:"active"`
}

// admitCmd performs one online admission: append the provider to the
// market, then place it with a capacity-aware best response against the
// current congestion, never onto a failed cloudlet.
func (s *Server) admitCmd(st *state, p mec.Provider) cmdResult {
	if s.cfg.MaxActive > 0 && len(st.ids) >= s.cfg.MaxActive {
		st.rejected++
		s.mRejected.Inc()
		return errorf(http.StatusTooManyRequests, "server: %d active providers (cap %d)", len(st.ids), s.cfg.MaxActive)
	}
	var idx int
	if st.m == nil {
		m, err := mec.NewMarket(s.net, []mec.Provider{p})
		if err != nil {
			st.rejected++
			s.mRejected.Inc()
			return errorf(http.StatusBadRequest, "server: %v", err)
		}
		st.m, idx = m, 0
		st.pl = mec.Placement{mec.Remote}
		st.ls = game.NewLoadState(m)
	} else {
		i, err := st.m.AppendProvider(p)
		if err != nil {
			st.rejected++
			s.mRejected.Inc()
			return errorf(http.StatusBadRequest, "server: %v", err)
		}
		idx = i
		st.pl = append(st.pl, mec.Remote)
	}
	// The equilibrium scan is the admission's hot core; a traced command
	// (curTrace set by execCommand) gets it as a child of the apply span,
	// with the decision as attrs. The traced scan is the same algorithm —
	// it only records what the scan computes — so tracing never changes a
	// placement. Untraced admissions pay one string comparison and a nil
	// Tracer: nothing is allocated, which is what the alloc benchmarks
	// assert.
	var (
		dec     *obs.Decision
		tr      obs.Tracer
		brStart time.Time
	)
	if s.curTrace != "" {
		dec = new(obs.Decision)
		tr = dec
		brStart = time.Now()
	}
	st.setPl(idx, dynamic.BestResponseWithLoads(st.ls, st.pl, idx, st.failed, tr))
	if dec != nil {
		s.recordSpan(obs.Span{
			Parent: s.curParent, Trace: s.curTrace, Stage: obs.StageBestResponse,
			Start: brStart, Duration: time.Since(brStart).Seconds(),
			Attrs: dec.Attrs(),
		})
	}
	id := st.nextID
	st.nextID++
	st.ids = append(st.ids, id)
	st.byID[id] = idx
	st.waiting = append(st.waiting, false)
	st.waitingFor = append(st.waitingFor, -1)
	st.accepted++
	s.mAccepted.Inc()
	resp := admitResponse{
		ID:         id,
		Placement:  st.pl[idx],
		Cost:       st.m.ProviderCost(st.pl, idx),
		SocialCost: st.m.SocialCost(st.pl),
		Active:     len(st.ids),
	}
	return cmdResult{status: http.StatusCreated, body: resp}
}

// departCmd retires a provider: its cached instance is destroyed and the
// remaining providers shift down one market index.
func (s *Server) departCmd(st *state, id int64) cmdResult {
	idx, ok := st.byID[id]
	if !ok {
		return errorf(http.StatusNotFound, "server: no active provider %d", id)
	}
	if st.pl[idx] != mec.Remote {
		// Unwind the departing tenant's load before indices shift.
		st.setPl(idx, mec.Remote)
	}
	if len(st.ids) == 1 {
		st.m = nil
		st.pl = nil
		st.ls = nil
		st.ids = st.ids[:0]
		st.waiting = st.waiting[:0]
		st.waitingFor = st.waitingFor[:0]
		clear(st.byID)
	} else {
		if err := st.m.RemoveProvider(idx); err != nil {
			return errorf(http.StatusInternalServerError, "server: %v", err)
		}
		st.pl = append(st.pl[:idx], st.pl[idx+1:]...)
		st.ids = append(st.ids[:idx], st.ids[idx+1:]...)
		st.waiting = append(st.waiting[:idx], st.waiting[idx+1:]...)
		st.waitingFor = append(st.waitingFor[:idx], st.waitingFor[idx+1:]...)
		delete(st.byID, id)
		for j := idx; j < len(st.ids); j++ {
			st.byID[st.ids[j]] = j
		}
	}
	st.departed++
	s.mDeparted.Inc()
	return cmdResult{status: http.StatusNoContent}
}

// failCmd marks a cloudlet down and applies the failover policy to every
// provider cached there. Unlike the virtual-time simulator there is no
// detection-delay window: the admin call is the detection.
func (s *Server) failCmd(st *state, cloudlet int) cmdResult {
	if cloudlet < 0 || cloudlet >= len(st.failed) {
		return errorf(http.StatusBadRequest, "server: cloudlet %d outside [0,%d)", cloudlet, len(st.failed))
	}
	if st.failed[cloudlet] {
		return errorf(http.StatusConflict, "server: cloudlet %d already failed", cloudlet)
	}
	st.failed[cloudlet] = true
	st.outages++
	s.mOutages.Inc()
	hit := 0
	for idx := range st.pl {
		if st.pl[idx] != cloudlet {
			continue
		}
		hit++
		st.failovers++
		s.mFailovers.Inc()
		st.setPl(idx, mec.Remote) // the remote original absorbs the traffic
		switch s.cfg.Policy {
		case fault.PolicyRemoteFallback:
			// Stay remote.
		case fault.PolicyReplace:
			st.setPl(idx, dynamic.BestResponseWithLoads(st.ls, st.pl, idx, st.failed, nil))
		case fault.PolicyWaitForRepair:
			st.waiting[idx] = true
			st.waitingFor[idx] = cloudlet
		}
	}
	return cmdResult{status: http.StatusOK, body: map[string]any{
		"cloudlet": cloudlet, "failed": true, "providersAffected": hit,
	}}
}

// repairCmd brings a cloudlet back. Providers waiting for it fail back only
// when the saving over staying remote beats their re-instantiation cost —
// the same hysteresis the dynamic simulator applies.
func (s *Server) repairCmd(st *state, cloudlet int) cmdResult {
	if cloudlet < 0 || cloudlet >= len(st.failed) {
		return errorf(http.StatusBadRequest, "server: cloudlet %d outside [0,%d)", cloudlet, len(st.failed))
	}
	if !st.failed[cloudlet] {
		return errorf(http.StatusConflict, "server: cloudlet %d is not failed", cloudlet)
	}
	st.failed[cloudlet] = false
	st.repairs++
	s.mRepairs.Inc()
	back := 0
	for idx := range st.pl {
		if !st.waiting[idx] || st.waitingFor[idx] != cloudlet {
			continue
		}
		st.waiting[idx] = false
		st.waitingFor[idx] = -1
		if choice := dynamic.BestResponseWithLoads(st.ls, st.pl, idx, st.failed, nil); choice == cloudlet {
			// The waiter sits at Remote, so the load state excludes it and
			// joining makes the cloudlet's load Count+1.
			saving := st.m.RemoteCost(idx) - st.m.CostAt(idx, cloudlet, st.ls.Count(cloudlet)+1)
			if saving > st.m.Providers[idx].InstCost {
				st.setPl(idx, cloudlet)
				st.failbacks++
				s.mFailbacks.Inc()
				back++
			}
		}
	}
	return cmdResult{status: http.StatusOK, body: map[string]any{
		"cloudlet": cloudlet, "failed": false, "providersReturned": back,
	}}
}

// epochCmd is the slow-timescale control loop: one LCF/Appro
// re-equilibration over the active providers, reusing the exact epoch step
// of the dynamic-market simulator. Waiting providers are frozen and failed
// cloudlets masked, as in the simulator.
func (s *Server) epochCmd(st *state) cmdResult {
	st.epochs++
	s.mEpochs.Inc()
	if st.m == nil {
		return cmdResult{status: http.StatusOK, body: map[string]any{"epoch": st.epochs, "active": 0}}
	}
	spanOn := s.curTrace != ""
	var epochStart, solveStart time.Time
	if spanOn {
		epochStart = time.Now()
		solveStart = epochStart
	}
	next, est, err := dynamic.Reequilibrate(st.m, st.pl, dynamic.EpochOptions{
		Xi:             s.cfg.Xi,
		Seed:           s.cfg.Seed + st.epochs,
		MigrationAware: s.cfg.MigrationAware,
		Frozen:         st.waiting,
		Failed:         st.failed,
		State:          &st.solve,
		Workers:        s.cfg.EpochWorkers,
	})
	if err != nil {
		return errorf(http.StatusInternalServerError, "server: epoch %d: %v", st.epochs, err)
	}
	if spanOn {
		warm := "miss"
		if est.WarmStart {
			warm = "hit"
		}
		s.recordSpan(obs.Span{
			Parent: s.curParent, Trace: s.curTrace, Stage: obs.StageEpochSolve,
			Start: solveStart, Duration: time.Since(solveStart).Seconds(),
			Attrs: []obs.Attr{
				obs.Int64("rounds", int64(est.Rounds)),
				obs.Int64("reconfigurations", int64(est.Reconfigurations)),
				obs.String("solver", est.Solver),
				obs.String("warm_start", warm),
				obs.String("transport", est.Transport),
				obs.Int64("rows_added", int64(est.TransportAdded)),
				obs.Int64("rows_removed", int64(est.TransportRemoved)),
				obs.Int64("shards", int64(est.Shards)),
				obs.Int64("suppressed", int64(est.MigrationsSuppressed)),
				obs.Float64("social_cost", est.SocialCost),
			},
		})
	}
	for i := range next {
		st.setPl(i, next[i])
	}
	st.reconfigs += uint64(est.Reconfigurations)
	st.suppressed += uint64(est.MigrationsSuppressed)
	st.migCost += est.MigrationCost
	s.mReconfigs.Add(float64(est.Reconfigurations))
	s.hLCFRounds.Observe(float64(est.Rounds))
	s.hEpochMigr.Observe(float64(est.Reconfigurations))
	if c := s.mSolves[est.Transport]; c != nil {
		c.Inc()
	}
	if !s.recovering {
		s.log.Info("epoch complete",
			"epoch", st.epochs, "active", len(st.ids), "rounds", est.Rounds,
			"reconfigurations", est.Reconfigurations, "suppressed", est.MigrationsSuppressed,
			"socialCost", est.SocialCost)
	}
	st.lastEpochErr = ""
	// Replayed epochs never write snapshots: recovery is a read of history,
	// not new history.
	if s.cfg.SnapshotPath != "" && !s.recovering {
		var snapStart time.Time
		if spanOn {
			snapStart = time.Now()
		}
		if err := s.writeSnapshot(st); err != nil {
			s.mSnapErrs.Inc()
			s.log.Error("epoch snapshot failed", "epoch", st.epochs, "path", s.cfg.SnapshotPath, "err", err)
			return errorf(http.StatusInternalServerError, "server: epoch snapshot: %v", err)
		}
		s.compactWAL()
		if spanOn {
			s.recordSpan(obs.Span{
				Parent: s.curParent, Trace: s.curTrace, Stage: obs.StageSnapshot,
				Start: snapStart, Duration: time.Since(snapStart).Seconds(),
			})
		}
	}
	if spanOn && !s.inTickerEpoch {
		// Request-driven epochs get the same whole-epoch span the ticker
		// records for background ones (there, the ticker owns the root), so
		// mecd_span_seconds{stage="epoch"} covers every epoch either way.
		s.recordSpan(obs.Span{
			Parent: s.curParent, Trace: s.curTrace, Stage: obs.StageEpoch,
			Start: epochStart, Duration: time.Since(epochStart).Seconds(),
			Attrs: []obs.Attr{obs.Int64("epoch", int64(st.epochs))},
		})
	}
	return cmdResult{status: http.StatusOK, body: map[string]any{
		"epoch":            st.epochs,
		"active":           len(st.ids),
		"reconfigurations": est.Reconfigurations,
		"suppressed":       est.MigrationsSuppressed,
		"socialCost":       est.SocialCost,
	}}
}
