package server

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"mdjoin/internal/core"
	"mdjoin/internal/optimizer"
	"mdjoin/internal/sqlext"
	"mdjoin/internal/table"
)

// view is one materialized MD-join view: a prepared query whose single
// MDJoin node has been compiled into a core.Incremental. Appends to the
// view's detail table fold into the materialization through the
// incremental pipeline; a read snapshots the operator's current result
// and grafts it back into the rest of the query plan (sorts, projections,
// limits execute normally over the snapshot).
//
// The view's base relation — and any other relation the plan references —
// is frozen at creation: a view answers over the base cells that existed
// when it was built. Re-create the view to pick up a changed base.
type view struct {
	name   string
	src    string
	detail string // catalog name of the detail relation appends fold from
	plan   optimizer.Plan
	mdj    *optimizer.MDJoin
	inc    *core.Incremental
}

// ViewBudgetBytes reports the per-view memory share: the view pool carved
// evenly across the view slots (the same core.BudgetShare carve admission
// uses for queries). 0 means unbounded views.
func (s *Server) ViewBudgetBytes() int {
	return core.BudgetShare(s.cfg.ViewPoolBytes, s.cfg.MaxViews)
}

// viewsSnapshot returns the current views, sorted by name.
func (s *Server) viewsSnapshot() []*view {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*view, 0, len(s.views))
	for _, v := range s.views {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// dropView removes a view by name, reporting whether it existed.
func (s *Server) dropView(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.views[name]; !ok {
		return false
	}
	delete(s.views, name)
	return true
}

// handleCreateView serves POST/PUT /views/{name}: the body is a dialect
// query whose plan must contain exactly one MD-join over a registered
// detail table; the server compiles it into an incremental
// materialization, backfills it from the detail relation's current rows,
// and from then on folds every /tables/{detail}/append delta into it.
//
// Serializing the backfill under appendMu is the point of that lock:
// appends must freeze until the view catches up to the snapshot.
//
//mdlint:lockhold-allow appendMu
func (s *Server) handleCreateView(w http.ResponseWriter, r *http.Request) {
	id := s.nextRequestID()
	w.Header().Set("X-Request-Id", id)
	if s.draining.Load() {
		s.refuse(w, id, http.StatusServiceUnavailable, "server is draining")
		return
	}
	name := r.PathValue("name")
	src, ok := s.readQueryText(w, r, id)
	if !ok {
		return
	}

	// The append lock freezes table appends for the whole build, so the
	// backfill and the first folded delta cannot overlap or double-count.
	s.appendMu.Lock()
	defer s.appendMu.Unlock()

	s.mu.Lock()
	_, exists := s.views[name]
	full := len(s.views) >= s.cfg.MaxViews
	s.mu.Unlock()
	if exists {
		s.refuse(w, id, http.StatusConflict, fmt.Sprintf("view %q already exists; DELETE it first", name))
		return
	}
	if full {
		s.refuse(w, id, http.StatusConflict, fmt.Sprintf("view limit (%d) reached", s.cfg.MaxViews))
		return
	}

	prep, err := sqlext.Prepare(src)
	if err != nil {
		s.refuse(w, id, http.StatusBadRequest, err.Error())
		return
	}
	if prep.HasWith() {
		s.refuse(w, id, http.StatusBadRequest, "view queries cannot use WITH: members re-materialize per execution, which a frozen view cannot maintain")
		return
	}
	plan := prep.MaintainedPlan()
	mdjs := optimizer.CollectMDJoins(plan)
	if len(mdjs) != 1 {
		s.refuse(w, id, http.StatusBadRequest,
			fmt.Sprintf("view queries must contain exactly one MD-join (found %d)", len(mdjs)))
		return
	}
	mdj := mdjs[0]
	scan, ok := mdj.Detail.(*optimizer.Scan)
	if !ok {
		s.refuse(w, id, http.StatusBadRequest,
			"the view's detail relation must be a registered table scan (appends are keyed by table name)")
		return
	}
	cat := s.snapshot()
	detailKey, detailT, err := lookupKey(cat, scan.Name)
	if err != nil {
		s.refuse(w, id, http.StatusBadRequest, err.Error())
		return
	}
	base, err := mdj.Base.Execute(cat)
	if err != nil {
		s.refuse(w, id, http.StatusBadRequest, "building view base: "+err.Error())
		return
	}
	opt := mdj.Opt
	if opt.RAlias == "" {
		opt.RAlias = mdj.DetailName
	}
	// Strip the execution strategy a one-shot evaluation would use:
	// incrementals are sequential and never partition (NewIncremental
	// rejects the parallel knobs), and a view outlives any one request's
	// context, stats sink, or shared-scan window.
	opt.Parallelism, opt.DetailParallelism = 0, 0
	opt.MaxBaseRows, opt.MemoryBudgetBytes = 0, 0
	opt.Ctx, opt.Stats, opt.Shared = nil, nil, nil
	inc, err := core.NewIncremental(base, detailT.Schema, mdj.Phases, opt, core.IncrementalConfig{})
	if err != nil {
		s.refuse(w, id, http.StatusBadRequest, err.Error())
		return
	}
	if err := inc.Append(detailT.Rows); err != nil {
		s.refuse(w, id, http.StatusBadRequest, "backfilling view: "+err.Error())
		return
	}
	if budget := s.ViewBudgetBytes(); budget > 0 && inc.SizeBytes() > int64(budget) {
		s.refuse(w, id, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("view needs %d bytes, over the %d-byte per-view budget", inc.SizeBytes(), budget))
		return
	}
	v := &view{name: name, src: src, detail: detailKey, plan: plan, mdj: mdj, inc: inc}
	s.mu.Lock()
	if s.views == nil {
		s.views = map[string]*view{}
	}
	s.views[name] = v
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"name":         name,
		"detail":       detailKey,
		"rows_in":      inc.Rows(),
		"size_bytes":   inc.SizeBytes(),
		"budget_bytes": s.ViewBudgetBytes(),
	})
}

// handleReadView serves GET /views/{name}: snapshot the materialized
// MD-join, graft it into the rest of the view's plan, and execute that
// remainder against the current catalog.
func (s *Server) handleReadView(w http.ResponseWriter, r *http.Request) {
	id := s.nextRequestID()
	w.Header().Set("X-Request-Id", id)
	name := r.PathValue("name")
	s.mu.Lock()
	v := s.views[name]
	s.mu.Unlock()
	if v == nil {
		s.refuse(w, id, http.StatusNotFound, fmt.Sprintf("no view %q", name))
		return
	}
	snap, rowsIn, err := v.inc.SnapshotRows()
	if err != nil {
		s.refuse(w, id, http.StatusInternalServerError, "view snapshot: "+err.Error())
		return
	}
	grafted := optimizer.ReplacePlanNode(v.plan, v.mdj, &optimizer.Literal{Table: snap, Label: "view " + v.name})
	res, err := grafted.Execute(s.snapshot())
	if err != nil {
		s.refuse(w, id, http.StatusBadRequest, err.Error())
		return
	}
	if res.Len() > s.cfg.MaxResponseRows {
		s.refuse(w, id, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("view result has %d rows, over the %d-row response limit", res.Len(), s.cfg.MaxResponseRows))
		return
	}
	s.m.served.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{
		"request_id": id,
		"name":       v.name,
		"detail":     v.detail,
		"columns":    res.Schema.Names(),
		"rows":       jsonRows(res),
		"row_count":  res.Len(),
		"rows_in":    rowsIn,
		"size_bytes": v.inc.SizeBytes(),
	})
}

// handleDeleteView serves DELETE /views/{name}.
func (s *Server) handleDeleteView(w http.ResponseWriter, r *http.Request) {
	id := s.nextRequestID()
	w.Header().Set("X-Request-Id", id)
	name := r.PathValue("name")
	if !s.dropView(name) {
		s.refuse(w, id, http.StatusNotFound, fmt.Sprintf("no view %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "deleted": true})
}

// handleListViews serves GET /views.
func (s *Server) handleListViews(w http.ResponseWriter, r *http.Request) {
	type viewInfo struct {
		Name      string `json:"name"`
		Detail    string `json:"detail"`
		Query     string `json:"query"`
		RowsIn    int    `json:"rows_in"`
		SizeBytes int64  `json:"size_bytes"`
	}
	views := s.viewsSnapshot()
	infos := make([]viewInfo, 0, len(views))
	for _, v := range views {
		infos = append(infos, viewInfo{
			Name: v.name, Detail: v.detail, Query: v.src,
			RowsIn: v.inc.Rows(), SizeBytes: v.inc.SizeBytes(),
		})
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleAppendTable serves POST/PUT /tables/{name}/append: the body is a
// CSV batch of new rows (header first, schema matching the registered
// relation). The catalog entry is extended copy-on-write — in-flight
// queries keep the snapshot they started with — and the delta folds into
// every view maintained over this table. A view whose maintenance fails
// or whose footprint crosses the per-view budget is evicted (reported in
// the response), never served stale.
//
// The view folds run under appendMu deliberately: catalog extension and
// view maintenance commit as one unit, so views never observe a row
// order other than the table's.
//
//mdlint:lockhold-allow appendMu
func (s *Server) handleAppendTable(w http.ResponseWriter, r *http.Request) {
	id := s.nextRequestID()
	w.Header().Set("X-Request-Id", id)
	if s.draining.Load() {
		s.refuse(w, id, http.StatusServiceUnavailable, "server is draining")
		return
	}
	name := r.PathValue("name")
	delta, err := table.ReadCSV(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.refuse(w, id, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("upload exceeds the %d-byte limit", s.cfg.MaxUploadBytes))
			return
		}
		s.refuse(w, id, http.StatusBadRequest, "parsing CSV: "+err.Error())
		return
	}

	// One append at a time: the catalog extension and every view fold
	// commit together, so views and tables always agree on the row order
	// of the stream.
	s.appendMu.Lock()
	defer s.appendMu.Unlock()

	cat := s.snapshot()
	key, old, err := lookupKey(cat, name)
	if err != nil {
		s.refuse(w, id, http.StatusNotFound, err.Error())
		return
	}
	if !delta.Schema.EqualNames(old.Schema) {
		s.refuse(w, id, http.StatusBadRequest,
			fmt.Sprintf("append columns %v do not match table %q columns %v", delta.Schema.Names(), key, old.Schema.Names()))
		return
	}
	// Copy-on-write: Extend leaves old untouched for the queries still
	// reading it, and keeps the columnar mirror so ad-hoc queries over
	// the extended table scan it without a transpose.
	next := old.Extend(delta.Rows)
	s.RegisterTable(key, next)
	s.m.appends.Add(1)

	var updated, evicted []string
	for _, v := range s.viewsSnapshot() {
		if !strings.EqualFold(v.detail, key) {
			continue
		}
		if err := v.inc.Append(delta.Rows); err != nil {
			s.dropView(v.name)
			s.m.viewsEvicted.Add(1)
			evicted = append(evicted, fmt.Sprintf("%s: %v", v.name, err))
			continue
		}
		if budget := s.ViewBudgetBytes(); budget > 0 && v.inc.SizeBytes() > int64(budget) {
			s.dropView(v.name)
			s.m.viewsEvicted.Add(1)
			evicted = append(evicted, fmt.Sprintf("%s: over the %d-byte per-view budget", v.name, budget))
			continue
		}
		updated = append(updated, v.name)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":          key,
		"rows_appended": delta.Len(),
		"total_rows":    next.Len(),
		"views_updated": updated,
		"views_evicted": evicted,
	})
}

// lookupKey resolves a relation case-insensitively like Catalog.Lookup,
// additionally returning the canonical catalog key — appends re-register
// under the original key, and views match deltas against it.
func lookupKey(cat optimizer.Catalog, name string) (string, *table.Table, error) {
	if t, ok := cat[name]; ok {
		return name, t, nil
	}
	for k, t := range cat {
		if strings.EqualFold(k, name) {
			return k, t, nil
		}
	}
	return "", nil, fmt.Errorf("no table %q", name)
}
