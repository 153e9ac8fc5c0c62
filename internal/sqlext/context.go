package sqlext

import (
	"context"
	"fmt"

	"mdjoin/internal/core"
	"mdjoin/internal/optimizer"
	"mdjoin/internal/table"
)

// Prepared is a dialect query compiled once — parsed, translated, and
// optimized — and executable many times. A Prepared is immutable after
// Prepare returns and safe for concurrent ExecContext calls: every
// execution clones the plan tree (optimizer.WithExecOptions) before
// stamping its per-request context, stats sink, and memory budget onto
// the MDJoin nodes. mdserve's plan LRU caches these so repeated query
// texts skip the parse/translate/optimize front end entirely.
type Prepared struct {
	src   string
	query *Query
	plan  optimizer.Plan
	// maintained is plan before the Theorem 4.5 roll-up: one MD-join per
	// aggregation variable, each over its detail relation.
	maintained optimizer.Plan
	with       []preparedCTE
}

// preparedCTE is one WITH-clause member, compiled like the main query;
// its result extends the catalog at execution time.
type preparedCTE struct {
	name string
	prep *Prepared
}

// Prepare parses, translates, and optimizes a dialect query without
// executing it. WITH-clause members are compiled recursively; their
// results are materialized per execution (each ExecContext sees the
// catalog of that call).
func Prepare(src string) (*Prepared, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return prepareQuery(src, q)
}

func prepareQuery(src string, q *Query) (*Prepared, error) {
	p := &Prepared{src: src, query: q}
	for _, cte := range q.With {
		cp, err := prepareQuery("", cte.Query)
		if err != nil {
			return nil, fmt.Errorf("sqlext: preparing WITH %s: %w", cte.Name, err)
		}
		p.with = append(p.with, preparedCTE{name: cte.Name, prep: cp})
	}
	plan, err := Translate(q)
	if err != nil {
		return nil, err
	}
	p.maintained = optimizer.OptimizeRules(plan)
	p.plan = optimizer.RollupCubes(p.maintained)
	return p, nil
}

// Src returns the query text the plan was prepared from ("" for inner
// WITH members).
func (p *Prepared) Src() string { return p.src }

// Plan returns the optimized plan tree. The tree is immutable and shared
// across executions; callers that transform it (mdserve's materialized
// views graft a Literal over the MD-join node) must rebuild rather than
// mutate — optimizer.ReplacePlanNode and WithExecOptions both do.
func (p *Prepared) Plan() optimizer.Plan { return p.plan }

// MaintainedPlan returns the optimized plan without the Theorem 4.5
// roll-up (optimizer.RollupCubes), whose MD-joins each aggregate a
// detail relation directly — the shape an incrementally maintained view
// folds appends into. It is Plan itself for every query the roll-up
// leaves alone.
func (p *Prepared) MaintainedPlan() optimizer.Plan { return p.maintained }

// HasWith reports whether the query carries WITH-clause members. Their
// results are materialized per execution, so callers freezing a plan
// against a fixed catalog (materialized views) reject them.
func (p *Prepared) HasWith() bool { return len(p.with) > 0 }

// ExecContext executes the prepared query against the catalog. ctx is
// threaded into every MD-join's Options.Ctx (superseding opt.Ctx when
// both are given), so cancellation aborts detail scans mid-flight; an
// already-expired ctx fails fast before any WITH member runs. The
// remaining opt fields are per-request execution parameters: Stats
// receives the merged MD-join metrics of every node, MemoryBudgetBytes
// bounds each node's aggregate-state footprint (unless the optimizer
// already chose a partitioning for it), and the strategy switches
// (parallelism, Disable*) apply to nodes the optimizer left at defaults.
func (p *Prepared) ExecContext(ctx context.Context, cat optimizer.Catalog, opt core.Options) (*table.Table, error) {
	if ctx == nil {
		ctx = opt.Ctx
	}
	if err := pollCtx(ctx); err != nil {
		return nil, err
	}
	cat, err := p.extendCatalog(ctx, cat, opt)
	if err != nil {
		return nil, err
	}
	return p.stamp(ctx, opt).Execute(cat)
}

// ExplainAnalyzeContext executes the prepared query with EXPLAIN ANALYZE
// instrumentation (per-node actual rows, wall time, MD-join metrics
// trees) and returns the annotated rendering plus the result. The
// instrumentation injects a private Stats per MDJoin node; when opt.Stats
// is non-nil the per-node metrics are additionally merged into it, so
// callers get one query-wide Stats next to the annotated tree.
func (p *Prepared) ExplainAnalyzeContext(ctx context.Context, cat optimizer.Catalog, opt core.Options) (string, *table.Table, error) {
	if ctx == nil {
		ctx = opt.Ctx
	}
	if err := pollCtx(ctx); err != nil {
		return "", nil, err
	}
	cat, err := p.extendCatalog(ctx, cat, opt)
	if err != nil {
		return "", nil, err
	}
	stats := opt.Stats
	opt.Stats = nil
	text, res, err := optimizer.ExplainAnalyzeInto(p.stamp(ctx, opt), cat, stats)
	if err != nil {
		return "", nil, err
	}
	return "-- explain analyze --\n" + text, res, nil
}

// extendCatalog materializes the WITH members (in order, each seeing the
// previous ones) into an extended copy of the catalog; the caller's map
// is untouched. Queries without a WITH clause get the catalog as-is.
func (p *Prepared) extendCatalog(ctx context.Context, cat optimizer.Catalog, opt core.Options) (optimizer.Catalog, error) {
	if len(p.with) == 0 {
		return cat, nil
	}
	ext := make(optimizer.Catalog, len(cat)+len(p.with))
	for k, v := range cat {
		ext[k] = v
	}
	for _, cte := range p.with {
		if _, exists := ext[cte.name]; exists {
			return nil, fmt.Errorf("sqlext: WITH name %q shadows an existing relation", cte.name)
		}
		t, err := cte.prep.ExecContext(ctx, ext, opt)
		if err != nil {
			return nil, fmt.Errorf("sqlext: evaluating WITH %s: %w", cte.name, err)
		}
		ext[cte.name] = t
	}
	return ext, nil
}

// stamp clones the prepared plan and merges the per-request execution
// parameters into every MDJoin node's Options. Node-level settings the
// optimizer chose (aliases, an explicit partitioning or parallelism)
// win over the request's; the request supplies what the plan left open.
func (p *Prepared) stamp(ctx context.Context, opt core.Options) optimizer.Plan {
	return optimizer.WithExecOptions(p.plan, func(o core.Options) core.Options {
		o.Ctx = ctx
		// The shared-scan coordinator is a per-process service, never a
		// plan-level choice: the request's always applies.
		o.Shared = opt.Shared
		if opt.Stats != nil {
			o.Stats = opt.Stats
		}
		if o.MaxBaseRows == 0 && o.MemoryBudgetBytes == 0 {
			o.MemoryBudgetBytes = opt.MemoryBudgetBytes
		}
		if o.Parallelism == 0 && o.DetailParallelism == 0 {
			o.Parallelism = opt.Parallelism
			o.DetailParallelism = opt.DetailParallelism
		}
		if opt.DisableIndex {
			o.DisableIndex = true
		}
		if opt.DisablePushdown {
			o.DisablePushdown = true
		}
		if opt.DisableBatch {
			o.DisableBatch = true
		}
		if opt.DisableColumnar {
			o.DisableColumnar = true
		}
		return o
	})
}

// RunContext is the context-aware Run: parse, translate, optimize, and
// execute with ctx threaded into every MD-join's Options.Ctx. See
// Prepared.ExecContext for the opt semantics. Callers issuing the same
// query text repeatedly should Prepare once instead.
func RunContext(ctx context.Context, src string, cat optimizer.Catalog, opt core.Options) (*table.Table, error) {
	p, err := Prepare(src)
	if err != nil {
		return nil, err
	}
	return p.ExecContext(ctx, cat, opt)
}

// ExplainAnalyzeContext is the context-aware ExplainAnalyze: it executes
// the query with per-node instrumentation under ctx and returns the
// annotated plan rendering plus the result table.
func ExplainAnalyzeContext(ctx context.Context, src string, cat optimizer.Catalog, opt core.Options) (string, *table.Table, error) {
	p, err := Prepare(src)
	if err != nil {
		return "", nil, err
	}
	return p.ExplainAnalyzeContext(ctx, cat, opt)
}

// pollCtx reports the context's error if it is already cancelled; a nil
// context never cancels.
func pollCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
