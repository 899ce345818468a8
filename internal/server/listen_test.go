package server

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
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
