package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"mecache/internal/obs"
)

// spanLayers are the per-operation columns of the traced table, in order.
// Every value is milliseconds; "op" is the benchmark's own timer around
// ServeHTTP and "residual" is op minus the request span, the part no span
// covers (mux dispatch and the response recorder).
var spanLayers = []string{
	"op", "request", "request_self", "queue_wait", "wal_append", "wal_fsync",
	"apply_self", "best_response", "epoch_solve", "epoch_overhead", "publish", "residual",
}

// spans fetches the traced request's spans from the daemon's own
// /v1/debug/spans and splits the operation into its stages: a stage's
// self time is its span minus the child spans it contains.
func (r *replay) spans(ph *phase, k opKind, res response) error {
	req := httptest.NewRequest(http.MethodGet, "/v1/debug/spans?n=0&trace="+res.trace, nil)
	rw := httptest.NewRecorder()
	r.d.h.ServeHTTP(rw, req)
	var body struct {
		Spans []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &body); err != nil {
		return fmt.Errorf("spans: decode: %w", err)
	}
	var root *obs.Span
	for i := range body.Spans {
		if body.Spans[i].Stage == obs.StageRequest {
			root = &body.Spans[i]
		}
	}
	if root == nil {
		return fmt.Errorf("spans: %s request carried a traceparent but left no request span", opNames[k])
	}
	child := func(parent uint64, stage string) (float64, uint64) {
		total, id := 0.0, uint64(0)
		for _, s := range body.Spans {
			if s.Parent == parent && s.Stage == stage {
				total += s.Duration
				id = s.ID
			}
		}
		return total * 1000, id
	}
	queue, _ := child(root.ID, obs.StageQueueWait)
	walAppend, _ := child(root.ID, obs.StageWALAppend)
	walFsync, _ := child(root.ID, obs.StageWALFsync)
	apply, applyID := child(root.ID, obs.StageApply)
	publish, _ := child(root.ID, obs.StagePublish)
	bestResponse, solve, wholeEpoch := 0.0, 0.0, 0.0
	if applyID != 0 {
		bestResponse, _ = child(applyID, obs.StageBestResponse)
		solve, _ = child(applyID, obs.StageEpochSolve)
		wholeEpoch, _ = child(applyID, obs.StageEpoch)
	}
	applyKids := bestResponse + solve
	if wholeEpoch > 0 {
		applyKids = wholeEpoch // the epoch span already contains the solve
	}
	request := root.Duration * 1000
	vals := map[string]float64{
		"op":            ms(res.dur),
		"request":       request,
		"request_self":  request - queue - walAppend - walFsync - apply - publish,
		"queue_wait":    queue,
		"wal_append":    walAppend,
		"wal_fsync":     walFsync,
		"apply_self":    apply - applyKids,
		"best_response": bestResponse,
		"epoch_solve":   solve,
		"publish":       publish,
		"residual":      ms(res.dur) - request,
	}
	if k == opEpoch || k == opIdleEpoch {
		vals["epoch_overhead"] = request - solve
	}
	for _, name := range spanLayers {
		if v, ok := vals[name]; ok {
			ph.layer(spanKey(k, name), v)
		}
	}
	return nil
}

func spanKey(k opKind, layer string) string { return "span." + opNames[k] + "." + layer }

// encodeRead times the read handler's JSON encoding on an equivalent
// input: the placements body built from the daemon's current View.
func (r *replay) encodeRead(ph *phase) error {
	v := r.d.srv.View()
	body := map[string]any{"providers": v.Providers, "socialCost": v.SocialCost, "epochs": v.Epochs}
	t0 := time.Now()
	err := json.NewEncoder(io.Discard).Encode(body)
	ph.layer("server.read_encode_ms", ms(time.Since(t0)))
	return err
}
