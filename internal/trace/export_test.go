package trace

// MaxSpansCut exposes the span budget's bound on recycled spans to the
// external replay tests.
const MaxSpansCut = maxSpansCut

// SpanPoolStats reports the pipeline's spans cut and not yet recycled,
// and the high-water mark of that count observed at recycling.
func SpanPoolStats(p *StreamPipeline) (out, peak int64) {
	return p.spanP.out.Load(), p.spanP.peak.Load()
}
