package lp

// SolveFlushes solves p as Solve does and also reports how many times the
// solve's update log outgrew the dense tableau and was flushed.
func SolveFlushes(p *Problem, opts Options) (*Solution, int, error) {
	if err := p.validate(); err != nil {
		return nil, 0, err
	}
	t := takeTableau()
	defer releaseTableau(t)
	sol, err := p.solve(t, opts)
	return sol, t.flushes, err
}
