package analysis

import (
	"context"

	"hpcfail/internal/dist"
)

// Fitter abstracts how the analyses obtain distribution fits. The default is
// the sequential dist.FitAll; internal/engine satisfies the interface with a
// memoizing concurrent pipeline, and the ...With variants of the analyses
// accept either. Analysis declares the interface on the consumer side so the
// engine can stay free of analysis imports.
type Fitter interface {
	FitAll(ctx context.Context, xs []float64, families ...dist.Family) (*dist.Comparison, error)
}

// seqFitter is the no-dependency default: plain sequential fitting.
type seqFitter struct{}

func (seqFitter) FitAll(ctx context.Context, xs []float64, families ...dist.Family) (*dist.Comparison, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return dist.FitAll(xs, families...)
}

// SequentialFitter returns the default Fitter that fits inline with no
// concurrency or caching.
func SequentialFitter() Fitter { return seqFitter{} }
