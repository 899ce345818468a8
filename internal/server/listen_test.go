package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sushi/internal/core"
)

// TestHTTPServerClosesHalfHeader pins the listener's header timeout: a
// client that sends half a request header and then stalls is cut off
// once the timeout passes, and the server goes on answering.
func TestHTTPServerClosesHalfHeader(t *testing.T) {
	srv := NewHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	if srv.ReadHeaderTimeout != headerTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts: header %v idle %v, want %v and %v", srv.ReadHeaderTimeout, srv.IdleTimeout, headerTimeout, idleTimeout)
	}
	// The production timeout would make this test ten seconds long; the
	// mechanism is the same at a fifth of a second.
	const timeout = 200 * time.Millisecond
	srv.ReadHeaderTimeout = timeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: sushi\r\nX-Half: "); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection well before the client's
	// own deadline; a read that hits that deadline means it never did.
	if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	elapsed := time.Since(start)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection with half a header still open after %v (header timeout %v)", elapsed, timeout)
	}
	if len(got) != 0 {
		t.Fatalf("stalled client got a reply: %q", got)
	}
	if elapsed < timeout {
		t.Fatalf("connection closed after %v, before the %v header timeout", elapsed, timeout)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatalf("next request: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Fatalf("next request: %d %q %v", resp.StatusCode, body, err)
	}
}

// syncBuffer is a log sink the server's goroutines and the test share.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestHTTPServerContainsPanics: a handler that panics before its reply
// starts is answered 500 with the JSON error body, and the panic is
// logged with its stack. One that panics mid-reply, or panics with
// http.ErrAbortHandler, has its reply aborted. After each, the server
// answers the next request.
func TestHTTPServerContainsPanics(t *testing.T) {
	var logs syncBuffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logs)
	mux := http.NewServeMux()
	mux.HandleFunc("/before", func(http.ResponseWriter, *http.Request) { panic("boom before the reply") })
	mux.HandleFunc("/during", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "partial")
		panic("boom during the reply")
	})
	mux.HandleFunc("/abort", func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })
	mux.HandleFunc("/ok", func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, "ok") })
	srv := NewHTTPServer("", mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()
	get := func(path string) (*http.Response, []byte, error) {
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp, body, err
	}

	panicked := panics.Load()
	for _, path := range []string{"/before", "/during", "/abort"} {
		resp, body, err := get(path)
		if path == "/before" {
			var msg map[string]string
			if err != nil || resp.StatusCode != http.StatusInternalServerError ||
				resp.Header.Get("Content-Type") != "application/json" || json.Unmarshal(body, &msg) != nil || msg["error"] == "" {
				t.Errorf("%s: want a 500 with the JSON error body, got %v %q (%v)", path, resp, body, err)
			}
		} else if err == nil {
			t.Errorf("%s: reply %d %q, want it aborted", path, resp.StatusCode, body)
		}
		if resp, body, err := get("/ok"); err != nil || resp.StatusCode != http.StatusOK || string(body) != "ok" {
			t.Fatalf("request after %s: %v %q %v", path, resp, body, err)
		}
	}
	out := logs.String()
	// /metrics counts each panic the listener contained, as it logs it
	// (the client may retry the aborted GET, which panics again).
	if n, logged := panics.Load()-panicked, strings.Count(out, "sushi-server: panic serving"); n < 2 || n != int64(logged) {
		t.Errorf("panic counter grew by %d with %d panics logged, want them equal and at least 2", n, logged)
	}
	for _, want := range []string{"panic serving GET /before: boom before the reply", "panic serving GET /during: boom during the reply", "runtime/debug.Stack"} {
		if !strings.Contains(out, want) {
			t.Errorf("log lacks %q:\n%s", want, out)
		}
	}
	// net/http logs the panics that reach it as "http: panic serving".
	if strings.Contains(out, "/abort") || strings.Contains(out, "http: panic serving") {
		t.Errorf("a panic reached net/http or http.ErrAbortHandler was logged:\n%s", out)
	}
}

// TestHTTPServerDrainsOnShutdown is sushi-server's SIGTERM path on one
// listener: a /v1/serve is held in flight, in front of the API handler,
// when Shutdown begins. The listener closes at once, so a new
// connection is refused; released, the held request is served through
// the API with 200; then Shutdown returns nil and Serve
// http.ErrServerClosed.
func TestHTTPServerDrainsOnShutdown(t *testing.T) {
	dep, err := core.DeployCluster(core.DeployOptions{Workload: core.MobileNetV3}, core.ClusterOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	api := New(dep)
	arrived, release := make(chan struct{}), make(chan struct{})
	srv := NewHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(arrived)
		<-release
		api.ServeHTTP(w, r)
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	type reply struct {
		code int
		body string
		err  error
	}
	inFlight := make(chan reply, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/serve", "application/json", strings.NewReader(`{"min_accuracy": 60}`))
		if err != nil {
			inFlight <- reply{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		inFlight <- reply{resp.StatusCode, string(body), err}
	}()
	<-arrived

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(ctx) }()
	// A dial that races the listener's close may be accepted or reset;
	// once it is closed, every dial is refused.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		conn, err := net.Dial("tcp", addr)
		if errors.Is(err, syscall.ECONNREFUSED) {
			break
		}
		if err == nil {
			conn.Close()
		}
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("the listener still takes connections during Shutdown (last dial: %v)", err)
		}
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	default:
	}
	close(release)
	if r := <-inFlight; r.err != nil || r.code != http.StatusOK || !strings.Contains(r.body, `"subnet"`) {
		t.Fatalf("in-flight request during Shutdown: %d %q %v, want 200 with a served SubNet", r.code, r.body, r.err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve: %v", err)
	}
}
