package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/jobs"
	"repro/internal/registry"
)

// POST /explore is the anytime exploration endpoint (DESIGN.md §14).
// Unlike /analyze it takes a JSON body, always addresses a registered
// dataset by hash, and answers interactively: budgets (budget_ms,
// max_patterns) bound the mine, sample_rows trades exactness for speed
// with explicit confidence intervals, and an "expand" object navigates
// the lattice from a named pattern without mining at all. "async": true
// routes the exploration through the job engine instead; progress then
// streams via the usual /jobs/{id}/partial and /jobs/{id}/events.

// exploreBody is the wire shape of a POST /explore request.
type exploreBody struct {
	Dataset     string  `json:"dataset"`
	Truth       string  `json:"truth"`
	Pred        string  `json:"pred"`
	Support     float64 `json:"support"`
	Metric      string  `json:"metric"`
	TopK        int     `json:"topk"`
	BudgetMS    int64   `json:"budget_ms"`
	MaxPatterns int64   `json:"max_patterns"`
	SampleRows  int     `json:"sample_rows"`
	SampleSeed  int64   `json:"sample_seed"`
	Confidence  float64 `json:"confidence"`
	Async       bool    `json:"async"`
	// Expand, when present, turns the request into a navigation step:
	// the frequent refinements of Pattern (the root when empty),
	// restricted to one attribute when Attr is set. Budgets and sampling
	// do not apply — navigation is exact and never mines.
	Expand *expandBody `json:"expand"`
}

type expandBody struct {
	Pattern []string `json:"pattern"`
	Attr    string   `json:"attr"`
}

// decodeBody strictly decodes the JSON body of a POST to the named
// endpoint into v: unknown fields are errors, and so is a trailing
// second JSON value — a malformed request, not extra data to ignore.
func decodeBody(body []byte, endpoint string, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad %s body: %w", endpoint, err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("bad %s body: trailing data after the JSON object", endpoint)
	}
	return nil
}

// exploreRequest is the parsed form: exactly one of spec (mine) or
// expand (navigate) is acted on; async only applies to the mine path.
type exploreRequest struct {
	spec   jobs.ExploreSpec
	expand *jobs.ExpandSpec
	async  bool
}

// parseExploreBody decodes and validates a POST /explore body. It is
// deliberately a pure []byte -> request function so the fuzz target can
// drive it directly. Range checks that the engine also performs are
// duplicated here where cheap, so malformed requests die before touching
// any engine state; defaults (metric, topk, confidence) are left to the
// engine so the two entry points cannot drift.
func parseExploreBody(body []byte) (exploreRequest, error) {
	var req exploreRequest
	var b exploreBody
	if err := decodeBody(body, "explore", &b); err != nil {
		return req, err
	}
	if b.Dataset == "" {
		return req, errors.New("missing dataset hash (register the CSV via POST /datasets first)")
	}
	if b.Support < 0 || b.Support > 1 {
		return req, fmt.Errorf("bad support %v (want [0,1])", b.Support)
	}
	if b.TopK < 0 {
		return req, fmt.Errorf("bad topk %d", b.TopK)
	}
	if b.BudgetMS < 0 || b.MaxPatterns < 0 || b.SampleRows < 0 {
		return req, errors.New("budgets and sample_rows must be non-negative")
	}
	if b.Confidence < 0 || b.Confidence >= 1 {
		return req, fmt.Errorf("bad confidence %v (want [0,1); 0 selects the default)", b.Confidence)
	}
	truth := orDefault(b.Truth, "truth")
	pred := orDefault(b.Pred, "pred")
	support := b.Support
	// lint:ignore floatcmp the zero value is the explicit "use the default" sentinel
	if support == 0 {
		support = 0.05
	}
	if b.Expand != nil {
		if b.Async {
			return req, errors.New("expand is synchronous; drop \"async\"")
		}
		if b.BudgetMS != 0 || b.MaxPatterns != 0 || b.SampleRows != 0 {
			return req, errors.New("expand is exact; budgets and sampling do not apply")
		}
		for _, it := range b.Expand.Pattern {
			if it == "" {
				return req, errors.New("empty item name in expand pattern")
			}
		}
		req.expand = &jobs.ExpandSpec{
			Dataset:  registry.Hash(b.Dataset),
			TruthCol: truth,
			PredCol:  pred,
			Support:  support,
			Metric:   b.Metric,
			Pattern:  b.Expand.Pattern,
			Attr:     b.Expand.Attr,
		}
		return req, nil
	}
	req.spec = jobs.ExploreSpec{
		Dataset:     registry.Hash(b.Dataset),
		TruthCol:    truth,
		PredCol:     pred,
		Support:     support,
		Metric:      b.Metric,
		TopK:        b.TopK,
		BudgetMS:    b.BudgetMS,
		MaxPatterns: b.MaxPatterns,
		SampleRows:  b.SampleRows,
		SampleSeed:  b.SampleSeed,
		Confidence:  b.Confidence,
	}
	req.async = b.Async
	return req, nil
}

// handleExplore implements POST /explore.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := parseExploreBody(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ds := req.spec.Dataset
	if req.expand != nil {
		ds = req.expand.Dataset
	}
	if _, ok := s.reg.Get(ds); !ok {
		writeError(w, http.StatusNotFound, "dataset "+string(ds)+" not registered")
		return
	}

	if req.expand != nil {
		out, err := s.engine.Expand(*req.expand)
		s.writeOutcome(w, r, out, err)
		return
	}
	if req.async {
		req.spec.Tenant = tenantOf(r)
		s.submitAsync(w, req.spec.Tenant, req.spec.Dataset, func(id string) (*jobs.Job, error) {
			return s.engine.SubmitAs(id, &req.spec)
		})
		return
	}
	out, err := s.engine.Explore(r.Context(), req.spec)
	s.writeOutcome(w, r, out, err)
}

// writeOutcome answers a synchronous explore, expand or significance
// query: its outcome, or the error mapped by writeQueryError.
func (s *Server) writeOutcome(w http.ResponseWriter, r *http.Request, out any, err error) {
	if err != nil {
		writeQueryError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}
