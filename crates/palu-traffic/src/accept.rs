//! The one accept loop behind [`Server`](crate::service::Server) and
//! [`DispatchServer`](crate::dispatch::DispatchServer) (DESIGN.md §4k).
//!
//! An acceptor thread blocks in `accept` and spawns one handler thread
//! per connection. When a session ends, its handler bumps a counter and
//! notifies a [`Condvar`]; the thread in [`serve`] waits on it and
//! re-checks the caller's exit condition at once, so a `Shutdown`, the
//! last submission or the last `WorkDone` ends the loop without a poll
//! sleep. Only the purely timed exits — the dispatcher's stall watchdog
//! and its external stop flag — rely on the bounded [`TICK`].
//!
//! To exit, `serve` marks the loop closing and wakes the blocked
//! acceptor with a loopback connect to the listener's own address. The
//! acceptor drops that connection unhandled, so it never reaches a
//! handler, a report or a counter.

use crate::wire::{io_fault, ServiceFault};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest `serve` waits without a session ending before it re-checks
/// its exit condition: the resolution of the stall watchdog and of the
/// stop flag, the two exits no session end signals.
const TICK: Duration = Duration::from_millis(25);

/// Connection bookkeeping shared by the acceptor, the handlers and
/// `serve`.
#[derive(Default)]
struct Sessions {
    /// Sessions ended so far; `serve` waits for it to move.
    ended: u64,
    /// Set once `serve` has decided to exit: the acceptor drops
    /// whatever it accepts next and stops.
    closing: bool,
    /// Handles of connections still live at the last accept; finished
    /// ones are reaped there, so a long-lived server retains handles
    /// only for live connections.
    handles: Vec<JoinHandle<()>>,
}

#[derive(Default)]
struct Shared {
    sessions: Mutex<Sessions>,
    changed: Condvar,
}

impl Shared {
    /// Same poisoning argument as the collector's lock: every mutation
    /// completes before the lock drops, so recover the guard.
    fn lock(&self) -> MutexGuard<'_, Sessions> {
        match self.sessions.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Wait until a session ends or one [`TICK`] passes.
    fn wait<'a>(&self, guard: MutexGuard<'a, Sessions>) -> MutexGuard<'a, Sessions> {
        match self.changed.wait_timeout(guard, TICK) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        }
    }
}

/// Counts a session as ended when dropped: after its stream has closed,
/// and on a panicking handler too.
struct SessionEnd(Arc<Shared>);

impl Drop for SessionEnd {
    fn drop(&mut self) {
        self.0.lock().ended += 1;
        self.0.changed.notify_all();
    }
}

/// Where `serve` connects to wake its own acceptor: the listener's
/// address, with loopback substituted for an unspecified IP.
fn wake_addr(listener: &TcpListener) -> Result<SocketAddr, ServiceFault> {
    let mut addr = listener.local_addr().map_err(|e| io_fault(&e))?;
    if addr.ip().is_unspecified() {
        addr.set_ip(if addr.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        });
    }
    Ok(addr)
}

/// Accept connections on `listener` and run `handler` on each in a
/// thread of its own (with `TCP_NODELAY` and `read_timeout` set), until
/// `stop` is raised or `finished` returns true. `finished` is evaluated
/// at the start, whenever a session ends, and at every [`TICK`].
///
/// After `finished`, every in-flight session is joined; after `stop`,
/// none is — the in-process stand-in for a SIGKILL. Either way the
/// listener is closed on return. Returns how many connection handles
/// were retained at exit.
///
/// # Errors
///
/// [`ServiceFault::Io`] when the listener cannot report its address or
/// the acceptor thread cannot be started.
pub(crate) fn serve<H, F>(
    listener: TcpListener,
    read_timeout: Duration,
    stop: Option<&AtomicBool>,
    handler: H,
    mut finished: F,
) -> Result<usize, ServiceFault>
where
    H: Fn(&mut TcpStream) + Clone + Send + 'static,
    F: FnMut() -> bool,
{
    let wake = wake_addr(&listener)?;
    let shared = Arc::new(Shared::default());
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .spawn(move || accept_until_closing(&listener, read_timeout, &shared, &handler))
            .map_err(|e| io_fault(&e))?
    };
    let stopped = || stop.is_some_and(|flag| flag.load(Ordering::SeqCst));
    let mut seen = shared.lock().ended;
    while !stopped() && !finished() {
        let mut sessions = shared.lock();
        if sessions.ended == seen {
            sessions = shared.wait(sessions);
        }
        seen = sessions.ended;
    }
    shared.lock().closing = true;
    // The acceptor drops this connection unhandled and exits, closing
    // the listener. A loopback connect only fails if the acceptor is
    // already gone or cannot be reached; then it is left detached.
    if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
        let _ = acceptor.join();
    }
    let handles = std::mem::take(&mut shared.lock().handles);
    let retained = handles.len();
    if !stopped() {
        for handle in handles {
            let _ = handle.join();
        }
    }
    Ok(retained)
}

/// The acceptor thread: block in `accept`, spawn a handler per
/// connection, reap finished handles, and stop at the first connection
/// accepted once the loop is closing.
fn accept_until_closing<H>(
    listener: &TcpListener,
    read_timeout: Duration,
    shared: &Arc<Shared>,
    handler: &H,
) where
    H: Fn(&mut TcpStream) + Clone + Send + 'static,
{
    loop {
        let accepted = listener.accept();
        let sessions = shared.lock();
        if sessions.closing {
            return;
        }
        let stream = match accepted {
            Ok((stream, _)) => stream,
            Err(_) => {
                // Out of descriptors or an aborted handshake: retry once
                // a session ends (freeing a descriptor) or a tick
                // passes, never in a spin.
                drop(shared.wait(sessions));
                continue;
            }
        };
        drop(sessions);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(read_timeout));
        let handler = handler.clone();
        let end = SessionEnd(Arc::clone(shared));
        // A connection whose thread cannot start is closed unhandled,
        // and still counts as an ended session.
        let spawned = std::thread::Builder::new().spawn(move || {
            let _end = end;
            let mut stream = stream;
            handler(&mut stream);
        });
        if let Ok(handle) = spawned {
            let mut sessions = shared.lock();
            sessions.handles.retain(|h| !h.is_finished());
            sessions.handles.push(handle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicUsize;

    /// Echo one byte, then hold the session until the peer closes.
    fn echo(stream: &mut TcpStream) {
        let mut byte = [0u8; 1];
        if stream.read_exact(&mut byte).is_ok() {
            let _ = stream.write_all(&byte);
        }
        let _ = stream.read(&mut byte);
    }

    #[test]
    fn sequential_connections_leave_only_a_handful_of_handles() {
        const CONNECTIONS: usize = 200;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handled = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&handled);
        let handler = move |stream: &mut TcpStream| {
            echo(stream);
            counter.fetch_add(1, Ordering::SeqCst);
        };
        let done = Arc::clone(&handled);
        let server = std::thread::spawn(move || {
            serve(listener, Duration::from_secs(5), None, handler, || {
                done.load(Ordering::SeqCst) >= CONNECTIONS
            })
        });
        for i in 0..CONNECTIONS {
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(&[i as u8]).unwrap();
            let mut reply = [0u8; 1];
            client.read_exact(&mut reply).unwrap();
            assert_eq!(reply[0], i as u8);
        }
        let retained = server.join().unwrap().unwrap();
        assert_eq!(handled.load(Ordering::SeqCst), CONNECTIONS);
        assert!(
            retained <= 10,
            "{retained} of {CONNECTIONS} finished handles retained"
        );
    }

    #[test]
    fn the_wake_connection_never_reaches_the_handler() {
        // An unspecified bind address is woken through loopback.
        let listener = TcpListener::bind("0.0.0.0:0").unwrap();
        let handled = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&handled);
        let handler = move |_: &mut TcpStream| {
            counter.fetch_add(1, Ordering::SeqCst);
        };
        let retained = serve(listener, Duration::from_secs(5), None, handler, || true).unwrap();
        assert_eq!(retained, 0);
        assert_eq!(handled.load(Ordering::SeqCst), 0);
    }
}
