// Package server implements viewmatd's network front-end: a TCP server
// speaking the internal/proto protocol that multiplexes many client
// connections onto one thread-safe core.Database.
//
// The serving model (DESIGN.md §9):
//
//   - One goroutine per connection, strict request/response framing.
//   - Admission control: a semaphore bounds requests executing against
//     the engine; a request arriving at the cap is answered CodeBusy
//     immediately rather than queued, so overload surfaces as a typed
//     error instead of unbounded latency.
//   - Per-connection deadlines: an idle read deadline while waiting
//     for the next request, a write deadline per response.
//   - Graceful shutdown: Shutdown stops the accept loop, lets every
//     in-flight request finish and its response flush, then closes the
//     connections. Kill is the crash path — it drops everything on the
//     floor, which is exactly what the crash-restart tests need.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"viewmat/internal/core"
)

// Config tunes a Server. The zero value gets sensible defaults from
// New.
type Config struct {
	// Addr is the listen address for ListenAndServe (host:port).
	Addr string
	// MaxInflight bounds requests executing against the engine at
	// once; requests beyond it are answered CodeBusy. Default 64.
	MaxInflight int
	// ReadTimeout is how long a connection may sit idle between
	// requests before the server closes it. Default 5m.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one response. Default 30s.
	WriteTimeout time.Duration
	// Logf, when non-nil, receives serving-loop diagnostics (accept
	// errors, recovered handler panics). Default: discard.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 5 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server state machine: running → draining (Shutdown) or killed
// (Kill); both end closed.
const (
	stateRunning int32 = iota
	stateDraining
	stateClosed
)

// Server serves the viewmat protocol over TCP.
type Server struct {
	db  *core.Database
	cfg Config

	// sem is the admission-control semaphore: a slot is held for the
	// duration of one engine call.
	sem chan struct{}

	state atomic.Int32

	mu    sync.Mutex
	lis   net.Listener
	conns map[net.Conn]struct{}

	// wg tracks connection-handler goroutines.
	wg sync.WaitGroup

	// admitHold, when non-nil, runs while a request holds its
	// admission slot, before it touches the engine. It is a test seam:
	// the backpressure test parks admitted requests here to make
	// "exactly K in flight" deterministic.
	admitHold atomic.Pointer[func()]
}

// New builds a server over an existing engine. The engine may already
// hold data and may have durability enabled; the server adds no state
// of its own.
func New(db *core.Database, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		db:    db,
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.MaxInflight),
		conns: map[net.Conn]struct{}{},
	}
}

// ListenAndServe listens on cfg.Addr and serves until Shutdown or
// Kill.
func (s *Server) ListenAndServe() error {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Serve accepts connections on lis until the listener is closed by
// Shutdown or Kill. It returns nil on a clean stop.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.state.Load() != stateRunning {
		s.mu.Unlock()
		lis.Close()
		return fmt.Errorf("server: already stopped")
	}
	s.lis = lis
	s.mu.Unlock()

	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.state.Load() != stateRunning {
				return nil // Shutdown/Kill closed the listener
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return err
		}
		s.mu.Lock()
		if s.state.Load() != stateRunning {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Shutdown drains the server gracefully: stop accepting, answer
// nothing new, let in-flight requests finish and their responses
// flush, then close every connection. If ctx expires first the
// remaining connections are closed hard.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.state.CompareAndSwap(stateRunning, stateDraining) {
		return nil
	}
	s.mu.Lock()
	if s.lis != nil {
		s.lis.Close()
	}
	// Interrupt idle readers now. A connection mid-request keeps its
	// engine call and response write (the write deadline is set per
	// response); its loop observes the drain state on the next
	// iteration and exits.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.closeAllConns()
		<-done
	}
	s.state.Store(stateClosed)
	return err
}

// Kill stops the server as a crash would: the listener and every
// connection are closed immediately, with no drain and no farewell
// responses. The engine object is left as-is; a killed process's state
// survives only through whatever durability devices it was given.
func (s *Server) Kill() {
	if !s.state.CompareAndSwap(stateRunning, stateClosed) {
		s.state.Store(stateClosed)
	}
	s.mu.Lock()
	if s.lis != nil {
		s.lis.Close()
	}
	s.mu.Unlock()
	s.closeAllConns()
	s.wg.Wait()
}

func (s *Server) closeAllConns() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// draining reports whether the server has left the running state.
func (s *Server) draining() bool { return s.state.Load() != stateRunning }

// setAdmitHoldForTest installs (or clears, with nil) the admission
// hold hook.
func (s *Server) setAdmitHoldForTest(fn func()) {
	if fn == nil {
		s.admitHold.Store(nil)
		return
	}
	s.admitHold.Store(&fn)
}

// isClosedConnErr reports errors that just mean "the peer or the
// server closed this connection" — the quiet ends of a connection's
// life that deserve no logging.
func isClosedConnErr(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, os.ErrDeadlineExceeded)
}
