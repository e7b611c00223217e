package experiments

import (
	"errors"
	"io"

	"cudaadvisor/internal/runner"
)

// WriteAll regenerates every table and figure in paper order. The
// analysis experiments run concurrently (each figure is a coordinator
// whose simulator runs are gated on the shared pool) and stream to w in
// paper order through a runner.Ordered writer: figure i is emitted as
// soon as figures < i are done, instead of after the whole run, with
// bytes identical to the old buffer-everything path. The wall-clock
// overhead study (Figure 10) runs afterwards, alone, so the concurrent
// figures cannot distort its timing.
//
// With -keep-going, a failing figure does not abort the others: every
// figure still renders (injured cells annotated in place) and the
// aggregated error produces exit status 1. Without it, the run aborts on
// the first figure error once the in-flight figures join; figures that
// completed before the failure may already have streamed.
func WriteAll(w io.Writer, env Env) error {
	figures := []func(io.Writer, Env) error{
		WriteFigure4, WriteFigure5, WriteTable3, WriteFigure6, WriteFigure7, WriteCodeDataCentric,
	}
	ord := runner.NewOrdered(w, len(figures))
	figErrs := make([]error, len(figures))
	err := runner.Concurrent(env.Pool, len(figures), func(i int) error {
		defer ord.Finish(i)
		err := figures[i](ord.Slot(i), env)
		if err != nil && env.KeepGoing {
			figErrs[i] = err
			return nil
		}
		return err
	})
	if err != nil {
		return err
	}
	if err := ord.Err(); err != nil {
		return err
	}
	err = WriteFigure10(w, env)
	if err != nil && !env.KeepGoing {
		return err
	}
	figErrs = append(figErrs, err)
	return errors.Join(figErrs...)
}
