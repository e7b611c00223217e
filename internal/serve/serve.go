// Package serve is the profiling-as-a-service layer: an HTTP handler
// that answers profile/lint/advise/export requests (built-in app name
// or .mir upload × architecture × analysis options × scale) from the
// shared content-addressed cache.
//
// Everything the pipeline produces is deterministic and
// content-addressed, so the daemon is read-mostly by construction: the
// first request for a key fills it (single-flight, in-process and
// across processes via the cache's claim files), every later request is
// a hit. Responses are byte-identical to the CLI invocation for the
// same request because both decode into and render from the one
// experiments.Request — the daemon adds transport and the policy below,
// not decoding or rendering.
//
// Hardening model:
//
//   - Admission: a runner.Gate bounds concurrent requests and the
//     waiting queue; overflow sheds immediately with 429 + Retry-After
//     instead of queueing unboundedly. /healthz and /statsz bypass the
//     gate so probes keep answering under load.
//   - Deadlines: Config.Timeout bounds each request via its context,
//     which flows runner → experiments → the GPU warp-step guard — the
//     same plumbing as -cell-timeout, but context-based so cacheability
//     is preserved. A client disconnect cancels the same way.
//   - Partial results: with Config.KeepGoing a failing cell renders as
//     its annotation line and the response is 200 with an
//     X-Cudaadvisor-Partial header, mirroring the CLI's -keep-going
//     exit-1-but-render-everything contract.
//   - Chaos: with Config.AllowInject a request may carry a per-request
//     ?inject= fault spec. Injected failures surface as clean 5xx and
//     the daemon keeps serving; injected runs bypass the cache both
//     ways (see experiments.Env.Cache), and kill= specs are always
//     rejected — the daemon never os.Exits on behalf of a request.
//   - Atomic responses: every request renders into a buffer first, so
//     an error becomes a clean status code, never a half-written body.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"cudaadvisor/internal/experiments"
	"cudaadvisor/internal/faultinject"
	"cudaadvisor/internal/profcache"
	"cudaadvisor/internal/runner"
)

// maxUploadBytes bounds a .mir upload body.
const maxUploadBytes = 4 << 20

// maxScale bounds the per-request input scale: scale multiplies
// simulation cost, so an unbounded value is a denial-of-service knob.
// It is an admission bound, not a validity rule — the CLI has none.
const maxScale = 64

// Config assembles a Server. Pool, Cache and Gate are shared across all
// requests; the zero value of every limit means "none".
type Config struct {
	Pool  *runner.Pool
	Cache *profcache.Cache // nil = no caching, not even single-flight
	Gate  *runner.Gate     // nil = unbounded admission

	// Timeout bounds each request end to end (0 = none). It is applied
	// to the request context, so cancellation reaches the GPU step
	// guard and the cache stays usable (unlike Env.CellTimeout, which
	// documents timing-dependent runs by bypassing the cache).
	Timeout time.Duration

	// TraceCap bounds each kernel trace's buffers (0 = unbounded).
	TraceCap int

	// KeepGoing maps failing cells to partial-result 200 responses with
	// an X-Cudaadvisor-Partial header instead of a 5xx.
	KeepGoing bool

	// AllowInject honors per-request ?inject= chaos specs. Off by
	// default: injection exists for testing the daemon, not for
	// callers.
	AllowInject bool

	// Log receives one line per completed request, followed by the
	// goroutine stack of a recovered panic; nil = discard.
	Log io.Writer
}

// Server is the HTTP handler. Create with New.
type Server struct {
	cfg Config
	mux *http.ServeMux
}

// New builds the handler.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/healthz", s.healthz)
	s.mux.HandleFunc("/statsz", s.statsz)
	for _, cmd := range []string{"profile", "lint", "advise", "export"} {
		s.mux.HandleFunc("/v1/"+cmd, s.gated(cmd))
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format, args...)
	}
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// statszCache is profcache.Snapshot on the wire behind the request
// total: janitorial counts apart from misses, so a warm-hit-rate
// assertion holds under a size budget, and the run slot's counts last.
type statszCache struct {
	Requests int64 `json:"requests"`
	profcache.Snapshot
}

type statszGate struct {
	InFlight int   `json:"in_flight"`
	Waiting  int   `json:"waiting"`
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
}

type statszBody struct {
	Cache *statszCache `json:"cache,omitempty"`
	Gate  *statszGate  `json:"gate,omitempty"`
}

func (s *Server) statsz(w http.ResponseWriter, _ *http.Request) {
	var body statszBody
	if c := s.cfg.Cache; c != nil {
		sn := c.Stats()
		body.Cache = &statszCache{sn.Requests(), sn}
	}
	if g := s.cfg.Gate; g != nil {
		body.Gate = &statszGate{
			InFlight: g.InFlight(), Waiting: g.Waiting(),
			Admitted: g.Admitted(), Shed: g.Shed(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

// badRequest marks client errors (bad params, unparseable uploads) so
// the handler answers 400 rather than 500.
type badRequest struct{ err error }

func (e badRequest) Error() string { return e.err.Error() }
func (e badRequest) Unwrap() error { return e.err }

func badf(format string, args ...any) error {
	return badRequest{fmt.Errorf(format, args...)}
}

// gated serves one command with the full request discipline: admission,
// deadline, buffered rendering, and status mapping.
func (s *Server) gated(cmd string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Gate != nil {
			release, err := s.cfg.Gate.Enter(r.Context())
			if errors.Is(err, runner.ErrOverloaded) {
				w.Header().Set("Retry-After", "1")
				http.Error(w, err.Error(), http.StatusTooManyRequests)
				s.logf("serve: %s %s -> 429\n", r.Method, r.URL.Path)
				return
			}
			if err != nil {
				// Client gone while queued; nobody is listening.
				return
			}
			defer release()
		}
		ctx := r.Context()
		if s.cfg.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
			defer cancel()
		}

		var buf bytes.Buffer
		err := s.render(&buf, cmd, r, experiments.Env{
			Pool:      s.cfg.Pool,
			Ctx:       ctx,
			TraceCap:  s.cfg.TraceCap,
			KeepGoing: s.cfg.KeepGoing,
			Cache:     s.cfg.Cache,
		})

		status, partial := http.StatusOK, false
		var br badRequest
		switch {
		case err == nil:
		case errors.As(err, &br):
			status = http.StatusBadRequest
		case s.cfg.KeepGoing && buf.Len() > 0:
			// The renderer degraded gracefully: annotated cells, healthy
			// ones intact. Deliver the partial body, flagged.
			partial = true
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			s.logf("serve: %s %s -> client gone\n", r.Method, r.URL.Path)
			return
		default:
			status = http.StatusInternalServerError
		}
		s.logf("serve: %s %s -> %d\n", r.Method, r.URL.Path, status)
		if pe := (*runner.PanicError)(nil); errors.As(err, &pe) {
			s.logf("%s", pe.Stack)
		}
		if status != http.StatusOK {
			http.Error(w, err.Error(), status)
			return
		}
		if partial {
			w.Header().Set("X-Cudaadvisor-Partial", "true")
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(buf.Bytes())
	}
}

// render answers /v1/<cmd>?app=A&arch=…: the query is the parameter
// lookup of experiments.NewRequest, a POSTed body the .mir module to
// analyze when no ?app= names a built-in (labelled ?name=, default
// upload.mir). Every decoding error is the client's (400); what is
// checked here is only what the CLI does not restrict.
func (s *Server) render(buf *bytes.Buffer, cmd string, r *http.Request, env experiments.Env) error {
	q := r.URL.Query()
	if spec := q.Get("inject"); spec != "" {
		inj, err := s.injectConfig(spec)
		if err != nil {
			return err
		}
		env.Inject = inj
	}
	var ir []byte
	if q.Get("app") == "" && r.Body != nil {
		src, err := io.ReadAll(io.LimitReader(r.Body, maxUploadBytes+1))
		if err != nil {
			return badRequest{err}
		}
		if len(src) > maxUploadBytes {
			return badf("upload exceeds %d bytes", maxUploadBytes)
		}
		ir = src
	}
	req, err := experiments.NewRequest(cmd, q.Get, ir)
	if err != nil {
		return badRequest{err}
	}
	if req.Scale > maxScale {
		return badf("scale=%d: this server admits at most %d", req.Scale, maxScale)
	}
	return req.Write(buf, env)
}

// injectConfig validates a per-request chaos spec: injection must be
// enabled server-side, and kill= is never honored — a request must not
// be able to take the daemon down.
func (s *Server) injectConfig(spec string) (*faultinject.Config, error) {
	if !s.cfg.AllowInject {
		return nil, badf("inject: not enabled on this server (start with -allow-inject)")
	}
	cfg, err := faultinject.Parse(spec)
	if err != nil {
		return nil, badRequest{err}
	}
	if cfg.KillCell != "" {
		return nil, badf("inject: kill= is not allowed over serve")
	}
	return cfg, nil
}
