//! The `--legacy-blocking` serve path: thread-per-connection over the
//! [`dclab_par::WorkerPool`], exactly the pre-reactor architecture.
//!
//! Retained as the differential oracle for the epoll reactor (the same
//! role `compute_sequential` plays for the bit-parallel APSP and
//! `chained_lk_scalar` for the SoA local search): both paths share one
//! parser ([`read_request_buffered`] wraps the reactor's `try_parse`) and
//! one response renderer, so for any request sequence their response
//! bytes must be identical — pinned by the differential e2e suite.
//!
//! Capacity semantics differ by design: each kept-alive connection pins a
//! worker here, so concurrent connections are capped at the worker count
//! (+ queue); the reactor serves orders of magnitude more. It is also the
//! non-Linux fallback, since the reactor's epoll surface is Linux-only.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use dclab_par::{SubmitError, WorkerPool};

use crate::http::{read_request_buffered, ParseError, RecvBuffer};
use crate::server::{self, ServeCtx};

/// Accept loop: hand each connection to the pool, shed with `503` +
/// `Retry-After` when the queue is full.
pub(crate) fn accept_loop(
    listener: TcpListener,
    ctx: Arc<ServeCtx>,
    workers: usize,
    queue_cap: usize,
    conn_idle_ms: u64,
) {
    let mut pool = WorkerPool::new(workers, queue_cap);
    ctx.metrics
        .pool_workers
        .store(pool.workers() as u64, Ordering::Relaxed);
    loop {
        ctx.metrics
            .pool_queue_depth
            .store(pool.queue_len() as u64, Ordering::Relaxed);
        ctx.metrics
            .pool_in_flight
            .store(pool.in_flight() as u64, Ordering::Relaxed);
        match listener.accept() {
            Ok((stream, _)) => {
                ctx.metrics.conns_accepted.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nonblocking(false);
                // Idle keep-alive connections time out rather than pinning
                // a worker forever (also bounds graceful-shutdown latency).
                let _ = stream.set_read_timeout(Some(Duration::from_millis(conn_idle_ms.max(1))));
                let _ = stream.set_nodelay(true);
                let conn_ctx = Arc::clone(&ctx);
                let shed_stream = stream.try_clone().ok();
                match pool.try_submit(move || handle_connection(conn_ctx, stream)) {
                    Ok(()) => {}
                    Err(SubmitError::QueueFull(job)) => {
                        // Shed load: drop the queued job (it owns the
                        // stream) and answer 503 on the clone without
                        // reading the request.
                        drop(job);
                        ctx.metrics
                            .rejected_overload
                            .fetch_add(1, Ordering::Relaxed);
                        let bytes = server::error_response(
                            &ctx,
                            503,
                            "server overloaded",
                            "overload",
                            server::RETRY_AFTER,
                            false,
                        );
                        if let Some(mut s) = shed_stream {
                            let _ = s.write_all(&bytes);
                        }
                    }
                    Err(SubmitError::ShuttingDown) => break,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if ctx.shutdown_requested() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                if ctx.shutdown_requested() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    server::finish_shutdown(&ctx, &mut pool);
}

/// Decrements the open-connections gauge on every exit path.
struct ConnGuard<'a>(&'a ServeCtx);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        let open = &self.0.metrics.conns_open;
        let _ = open.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }
}

/// Serve one connection until close/EOF/timeout. The worker thread is
/// pinned here for the connection's whole lifetime — this is precisely
/// what the reactor exists to avoid.
fn handle_connection(ctx: Arc<ServeCtx>, stream: TcpStream) {
    ctx.metrics.conns_open.fetch_add(1, Ordering::Relaxed);
    let _guard = ConnGuard(&ctx);
    let mut write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut rb = RecvBuffer::default();
    loop {
        match read_request_buffered(&mut reader, &mut rb, ctx.max_body_bytes) {
            Ok(req) => {
                let (bytes, keep_alive) = server::answer(&ctx, &req);
                if write_half.write_all(&bytes).is_err() || !keep_alive {
                    return;
                }
            }
            Err(ParseError::Io(e)) => {
                // A read timeout on an *idle* keep-alive connection is the
                // blocking path's slow-loris reap.
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    ctx.metrics.conns_reaped.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            Err(e) => {
                if let Some((status, reason, kind)) = e.response() {
                    let bytes = server::error_response(&ctx, status, reason, kind, &[], false);
                    let _ = write_half.write_all(&bytes);
                }
                return;
            }
        }
    }
}
