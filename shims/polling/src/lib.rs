//! Offline stand-in for the `polling` crate: portable readiness polling
//! over raw syscalls, plus the one rlimit helper a 10k-connection server
//! needs.
//!
//! The build container has no registry access, so this shim provides the
//! small readiness-API surface the reactor transport in `gdpr-server`
//! consumes:
//!
//! * [`Poller`] — add/modify/delete interest in file descriptors and
//!   [`Poller::wait`] for readiness events, **level-triggered** on both
//!   backends (an event keeps firing while the condition holds, so a
//!   partially drained socket is re-reported on the next wait);
//! * two backends behind one API: `epoll(7)` on Linux (O(ready) wakeups,
//!   the backend that makes 10k mostly-idle connections cheap) and a
//!   portable `poll(2)` fallback (O(registered) per wait) so the crate
//!   builds and the reactor runs on any Unix — selectable explicitly or
//!   via `GDPR_POLL_BACKEND=epoll|poll` for differential testing;
//! * [`Poller::notify`] — wake a blocked [`Poller::wait`] from another
//!   thread (worker threads use it to hand completed batches back to the
//!   reactor), implemented as a self-pipe with a coalescing flag: one
//!   byte per flag transition, so the pipe holds at most two and a drain
//!   can never block;
//! * [`raise_nofile_limit`] — lift `RLIMIT_NOFILE`'s soft limit toward
//!   the hard limit, without which "10k connections" dies at the default
//!   1024 file descriptors on most distros.
//!
//! All unsafe syscall FFI in the workspace is confined to this crate; the
//! server crate itself stays `#![forbid(unsafe_code)]`.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use core::ffi::c_int;

/// A readiness event: the registered `key` plus which directions are
/// ready. Error/hang-up conditions are folded into both directions so the
/// owner observes them on its next read/write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The caller-chosen identifier registered with the descriptor.
    pub key: usize,
    /// The descriptor is ready for reading (or has an error/HUP pending).
    pub readable: bool,
    /// The descriptor is ready for writing (or has an error/HUP pending).
    pub writable: bool,
}

impl Event {
    /// Interest in read readiness only.
    #[must_use]
    pub fn readable(key: usize) -> Self {
        Event {
            key,
            readable: true,
            writable: false,
        }
    }

    /// Interest in write readiness only.
    #[must_use]
    pub fn writable(key: usize) -> Self {
        Event {
            key,
            readable: false,
            writable: true,
        }
    }

    /// Interest in both directions.
    #[must_use]
    pub fn all(key: usize) -> Self {
        Event {
            key,
            readable: true,
            writable: true,
        }
    }
}

/// Which kernel interface backs a [`Poller`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `epoll(7)`: interest lives in the kernel, waits cost O(ready).
    /// Linux only.
    Epoll,
    /// `poll(2)`: the interest set is rebuilt and scanned every wait —
    /// O(registered) — but works on every Unix.
    Poll,
}

impl Backend {
    /// The default backend for this platform, honoring the
    /// `GDPR_POLL_BACKEND` environment variable (`epoll` or `poll`).
    #[must_use]
    pub fn from_env_or_default() -> Self {
        match std::env::var("GDPR_POLL_BACKEND").as_deref() {
            Ok("poll") => Backend::Poll,
            Ok("epoll") => default_backend(),
            _ => default_backend(),
        }
    }
}

#[cfg(target_os = "linux")]
fn default_backend() -> Backend {
    Backend::Epoll
}

#[cfg(not(target_os = "linux"))]
fn default_backend() -> Backend {
    Backend::Poll
}

/// The key space is the caller's except for this reserved value, which
/// tags the internal wake pipe.
const WAKE_KEY: u64 = u64::MAX;

/// Readiness poller over a set of registered file descriptors.
///
/// All methods take `&self`: registration calls belong to the owning
/// reactor thread, while [`Poller::notify`] is safe from any thread.
#[derive(Debug)]
pub struct Poller {
    backend: BackendImpl,
    wake_reader: Mutex<std::io::PipeReader>,
    wake_writer: std::io::PipeWriter,
    /// Coalesces notifies: a byte is written only on a clear → set
    /// transition and each drain clears once and reads once, so at most
    /// two bytes are ever pending and draining can never block.
    notified: AtomicBool,
}

#[derive(Debug)]
enum BackendImpl {
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    Poll(pollfallback::PollSet),
}

impl Poller {
    /// Create a poller on the platform-default backend (see
    /// [`Backend::from_env_or_default`]).
    ///
    /// # Errors
    ///
    /// Propagates backend-creation syscall failures.
    pub fn new() -> io::Result<Self> {
        Poller::with_backend(Backend::from_env_or_default())
    }

    /// Create a poller on an explicit backend. Requesting
    /// [`Backend::Epoll`] off Linux falls back to `poll(2)`.
    ///
    /// # Errors
    ///
    /// Propagates backend-creation syscall failures.
    pub fn with_backend(backend: Backend) -> io::Result<Self> {
        let (wake_reader, wake_writer) = std::io::pipe()?;
        let backend = match backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll => BackendImpl::Epoll(epoll::Epoll::new()?),
            _ => BackendImpl::Poll(pollfallback::PollSet::new()),
        };
        let poller = Poller {
            backend,
            wake_reader: Mutex::new(wake_reader),
            wake_writer,
            notified: AtomicBool::new(false),
        };
        let wake_fd = poller.wake_reader.lock().expect("wake lock").as_raw_fd();
        poller.register_raw(
            wake_fd,
            WAKE_KEY,
            Event {
                key: 0,
                readable: true,
                writable: false,
            },
        )?;
        Ok(poller)
    }

    /// The backend actually in use.
    #[must_use]
    pub fn backend(&self) -> Backend {
        match &self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(_) => Backend::Epoll,
            BackendImpl::Poll(_) => Backend::Poll,
        }
    }

    /// Register interest in `source` under `event.key`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures (e.g. the descriptor is already
    /// registered).
    pub fn add(&self, source: &impl AsRawFd, event: Event) -> io::Result<()> {
        self.register_raw(source.as_raw_fd(), event.key as u64, event)
    }

    fn register_raw(&self, fd: RawFd, key: u64, event: Event) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(ep) => ep.add(fd, key, event),
            BackendImpl::Poll(ps) => {
                ps.add(fd, key, event);
                Ok(())
            }
        }
    }

    /// Change the interest set of an already registered descriptor.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures (e.g. the descriptor was never
    /// registered).
    pub fn modify(&self, source: &impl AsRawFd, event: Event) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(ep) => ep.modify(source.as_raw_fd(), event.key as u64, event),
            BackendImpl::Poll(ps) => ps.modify(source.as_raw_fd(), event.key as u64, event),
        }
    }

    /// Remove a descriptor from the interest set. Call *before* closing
    /// the descriptor.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures.
    pub fn delete(&self, source: &impl AsRawFd) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(ep) => ep.delete(source.as_raw_fd()),
            BackendImpl::Poll(ps) => {
                ps.delete(source.as_raw_fd());
                Ok(())
            }
        }
    }

    /// Block until at least one registered descriptor is ready, the
    /// timeout elapses (`Ok` with no events), or [`Poller::notify`] is
    /// called. Events are appended to `events` (cleared first) and the
    /// count returned. `None` blocks indefinitely.
    ///
    /// # Errors
    ///
    /// Propagates wait-syscall failures (`EINTR` is retried internally).
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => c_int::try_from(d.as_millis()).unwrap_or(c_int::MAX),
        };
        let mut woke = false;
        match &self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(ep) => ep.wait(events, timeout_ms, &mut woke)?,
            BackendImpl::Poll(ps) => ps.wait(events, timeout_ms, &mut woke)?,
        }
        if woke {
            self.drain_wake();
        }
        Ok(events.len())
    }

    /// Wake a blocked (or the next) [`Poller::wait`] from any thread.
    /// Multiple notifies before the wait returns coalesce into one.
    pub fn notify(&self) {
        if !self.notified.swap(true, Ordering::SeqCst) {
            let _ = (&self.wake_writer).write(&[1u8]);
        }
    }

    fn drain_wake(&self) {
        // Clear the flag BEFORE consuming the byte: a notify landing
        // between the two puts a fresh byte in the pipe, so the next wait
        // wakes (at worst spuriously) instead of sleeping through it.
        // Consume exactly ONE byte per cleared flag: reading more would
        // swallow that fresh byte while the flag stays set, and every
        // later notify would be elided as "already pending".
        self.notified.store(false, Ordering::SeqCst);
        let mut byte = [0u8; 1];
        if let Ok(reader) = self.wake_reader.lock() {
            let _ = (&*reader).read(&mut byte);
        }
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::{c_int, io, Event, RawFd, WAKE_KEY};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    /// Mirrors the kernel's `struct epoll_event`; packed on x86-64, where
    /// the kernel ABI has no padding between the two fields.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    #[derive(Debug)]
    pub(super) struct Epoll {
        epfd: OwnedFd,
    }

    fn interest_bits(event: Event) -> u32 {
        let mut bits = EPOLLRDHUP;
        if event.readable {
            bits |= EPOLLIN;
        }
        if event.writable {
            bits |= EPOLLOUT;
        }
        bits
    }

    impl Epoll {
        pub(super) fn new() -> io::Result<Self> {
            // SAFETY: plain syscall; the returned descriptor (checked for
            // -1) is immediately wrapped in OwnedFd, which closes it.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: fd is a freshly created, valid, uniquely owned epoll fd.
            Ok(Epoll {
                epfd: unsafe { OwnedFd::from_raw_fd(fd) },
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, key: u64, bits: u32) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: bits,
                data: key,
            };
            // SAFETY: epfd and the event pointer are valid for the call's
            // duration; the kernel copies the struct synchronously.
            let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn add(&self, fd: RawFd, key: u64, event: Event) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, key, interest_bits(event))
        }

        pub(super) fn modify(&self, fd: RawFd, key: u64, event: Event) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, key, interest_bits(event))
        }

        pub(super) fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        pub(super) fn wait(
            &self,
            out: &mut Vec<Event>,
            timeout_ms: c_int,
            woke: &mut bool,
        ) -> io::Result<()> {
            const CAPACITY: usize = 1024;
            let mut buf = [EpollEvent { events: 0, data: 0 }; CAPACITY];
            let n = loop {
                // SAFETY: the buffer outlives the call and CAPACITY bounds
                // how many entries the kernel may write.
                let rc = unsafe {
                    epoll_wait(
                        self.epfd.as_raw_fd(),
                        buf.as_mut_ptr(),
                        CAPACITY as c_int,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in buf.iter().take(n) {
                // Copy out of the (possibly packed) struct before use.
                let bits = ev.events;
                let key = ev.data;
                if key == WAKE_KEY {
                    *woke = true;
                    continue;
                }
                let fatal = bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
                out.push(Event {
                    key: key as usize,
                    readable: bits & EPOLLIN != 0 || fatal,
                    writable: bits & EPOLLOUT != 0 || fatal,
                });
            }
            Ok(())
        }
    }
}

mod pollfallback {
    use super::{c_int, io, Event, HashMap, Mutex, RawFd, WAKE_KEY};

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    /// Mirrors `struct pollfd`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    #[cfg(target_os = "linux")]
    type NfdsT = core::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = core::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }

    /// The interest set, rebuilt into a `pollfd` array every wait.
    #[derive(Debug)]
    pub(super) struct PollSet {
        interest: Mutex<HashMap<RawFd, (u64, bool, bool)>>,
    }

    impl PollSet {
        pub(super) fn new() -> Self {
            PollSet {
                interest: Mutex::new(HashMap::new()),
            }
        }

        pub(super) fn add(&self, fd: RawFd, key: u64, event: Event) {
            self.interest
                .lock()
                .expect("poll interest lock")
                .insert(fd, (key, event.readable, event.writable));
        }

        pub(super) fn modify(&self, fd: RawFd, key: u64, event: Event) -> io::Result<()> {
            match self
                .interest
                .lock()
                .expect("poll interest lock")
                .get_mut(&fd)
            {
                Some(entry) => {
                    *entry = (key, event.readable, event.writable);
                    Ok(())
                }
                None => Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "descriptor is not registered",
                )),
            }
        }

        pub(super) fn delete(&self, fd: RawFd) {
            self.interest
                .lock()
                .expect("poll interest lock")
                .remove(&fd);
        }

        pub(super) fn wait(
            &self,
            out: &mut Vec<Event>,
            timeout_ms: c_int,
            woke: &mut bool,
        ) -> io::Result<()> {
            let (mut fds, keys): (Vec<PollFd>, Vec<u64>) = {
                let interest = self.interest.lock().expect("poll interest lock");
                let mut fds = Vec::with_capacity(interest.len());
                let mut keys = Vec::with_capacity(interest.len());
                for (&fd, &(key, readable, writable)) in interest.iter() {
                    let mut events = 0i16;
                    if readable {
                        events |= POLLIN;
                    }
                    if writable {
                        events |= POLLOUT;
                    }
                    fds.push(PollFd {
                        fd,
                        events,
                        revents: 0,
                    });
                    keys.push(key);
                }
                (fds, keys)
            };
            let n = loop {
                // SAFETY: the fds buffer is valid and its length is passed
                // as nfds; poll writes only to revents within bounds.
                let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            if n == 0 {
                return Ok(());
            }
            for (pfd, &key) in fds.iter().zip(keys.iter()) {
                let revents = pfd.revents;
                if revents == 0 {
                    continue;
                }
                if key == WAKE_KEY {
                    *woke = true;
                    continue;
                }
                let fatal = revents & (POLLERR | POLLHUP | POLLNVAL) != 0;
                out.push(Event {
                    key: key as usize,
                    readable: revents & POLLIN != 0 || fatal,
                    writable: revents & POLLOUT != 0 || fatal,
                });
            }
            Ok(())
        }
    }
}

/// `RLIMIT_NOFILE` for [`raise_nofile_limit`].
#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: c_int = 7;
#[cfg(not(target_os = "linux"))]
const RLIMIT_NOFILE: c_int = 8;

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

/// Raise the soft `RLIMIT_NOFILE` toward `want` descriptors (capped at
/// the hard limit) and return the resulting soft limit. A no-op when the
/// soft limit already covers `want`.
///
/// # Errors
///
/// Propagates `getrlimit`/`setrlimit` failures.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: the struct outlives the call and matches the kernel layout.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } < 0 {
        return Err(io::Error::last_os_error());
    }
    if lim.rlim_cur >= want {
        return Ok(lim.rlim_cur);
    }
    let target = want.min(lim.rlim_max);
    let new = Rlimit {
        rlim_cur: target,
        rlim_max: lim.rlim_max,
    };
    // SAFETY: same-layout struct, read-only for the kernel.
    if unsafe { setrlimit(RLIMIT_NOFILE, &new) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Instant;

    fn backends() -> Vec<Backend> {
        if cfg!(target_os = "linux") {
            vec![Backend::Epoll, Backend::Poll]
        } else {
            vec![Backend::Poll]
        }
    }

    fn connected_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn reports_read_readiness_with_the_registered_key() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let (client, server) = connected_pair();
            server.set_nonblocking(true).unwrap();
            poller.add(&server, Event::readable(7)).unwrap();
            let mut events = Vec::new();
            // Nothing to read yet: the wait times out empty.
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert_eq!(n, 0, "{backend:?}");
            (&client).write_all(b"x").unwrap();
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            assert_eq!(n, 1, "{backend:?}");
            assert_eq!(events[0].key, 7);
            assert!(events[0].readable);
        }
    }

    #[test]
    fn level_triggered_until_drained_and_modify_changes_interest() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let (client, server) = connected_pair();
            server.set_nonblocking(true).unwrap();
            poller.add(&server, Event::readable(3)).unwrap();
            (&client).write_all(b"abc").unwrap();
            let mut events = Vec::new();
            // Unread data keeps firing (level-triggered).
            for _ in 0..2 {
                poller
                    .wait(&mut events, Some(Duration::from_secs(2)))
                    .unwrap();
                assert!(
                    events.iter().any(|e| e.key == 3 && e.readable),
                    "{backend:?}"
                );
            }
            // A fresh socket is immediately writable once we ask for it.
            poller.modify(&server, Event::all(3)).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.key == 3 && e.writable),
                "{backend:?}"
            );
            // Dropping write interest silences it again once drained.
            let mut buf = [0u8; 8];
            let _ = (&server).read(&mut buf);
            poller.modify(&server, Event::readable(3)).unwrap();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert_eq!(n, 0, "{backend:?}");
        }
    }

    #[test]
    fn delete_stops_reporting() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let (client, server) = connected_pair();
            server.set_nonblocking(true).unwrap();
            poller.add(&server, Event::readable(9)).unwrap();
            (&client).write_all(b"x").unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            assert_eq!(events.len(), 1);
            poller.delete(&server).unwrap();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert_eq!(n, 0, "{backend:?}");
        }
    }

    #[test]
    fn notify_wakes_a_blocked_wait_from_another_thread() {
        for backend in backends() {
            let poller = Arc::new(Poller::with_backend(backend).unwrap());
            let notifier = Arc::clone(&poller);
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                notifier.notify();
            });
            let mut events = Vec::new();
            let start = Instant::now();
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "{backend:?}: notify did not wake the wait"
            );
            // The wake itself is internal: no user event is surfaced.
            assert_eq!(n, 0, "{backend:?}");
            handle.join().unwrap();
            // Coalesced notifies do not leave stale wakeups behind.
            poller.notify();
            poller.notify();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            let start = Instant::now();
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            assert!(start.elapsed() >= Duration::from_millis(40), "{backend:?}");
        }
    }

    #[test]
    fn concurrent_notifies_are_never_lost() {
        // Several notifiers each post work, notify, and wait for the
        // waiter's ack before posting again (the reactor's worker-completion
        // handshake). A notify racing a drain must still wake a later wait:
        // a swallowed wake byte leaves the waiter asleep with work posted,
        // which shows here as a wait running into its timeout.
        use std::sync::atomic::AtomicUsize;
        const NOTIFIERS: usize = 4;
        const ROUNDS: usize = 20_000;
        const STALL: Duration = Duration::from_secs(5);
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let posted: Vec<AtomicBool> = (0..NOTIFIERS).map(|_| AtomicBool::new(false)).collect();
            let abort = AtomicBool::new(false);
            let acked = AtomicUsize::new(0);
            let mut stalled = false;
            std::thread::scope(|scope| {
                for flag in &posted {
                    let (poller, abort) = (&poller, &abort);
                    scope.spawn(move || {
                        for _ in 0..ROUNDS {
                            flag.store(true, Ordering::SeqCst);
                            poller.notify();
                            while flag.load(Ordering::SeqCst) {
                                if abort.load(Ordering::SeqCst) {
                                    return;
                                }
                                std::thread::yield_now();
                            }
                        }
                    });
                }
                let mut events = Vec::new();
                while acked.load(Ordering::SeqCst) < NOTIFIERS * ROUNDS {
                    let start = Instant::now();
                    poller.wait(&mut events, Some(STALL)).unwrap();
                    if start.elapsed() >= STALL {
                        stalled = true;
                        abort.store(true, Ordering::SeqCst);
                        break;
                    }
                    for flag in &posted {
                        if flag.swap(false, Ordering::SeqCst) {
                            acked.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            });
            assert!(
                !stalled,
                "{backend:?}: a notify was lost after {} acks; the wait slept through posted work",
                acked.load(Ordering::SeqCst)
            );
        }
    }

    #[test]
    fn timeout_expires_with_no_events() {
        for backend in backends() {
            let poller = Poller::with_backend(backend).unwrap();
            let mut events = Vec::new();
            let start = Instant::now();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(30)))
                .unwrap();
            assert_eq!(n, 0);
            assert!(start.elapsed() >= Duration::from_millis(25), "{backend:?}");
        }
    }

    #[test]
    fn raise_nofile_limit_is_monotone_and_idempotent() {
        let current = raise_nofile_limit(64).unwrap();
        assert!(current >= 64);
        let again = raise_nofile_limit(current).unwrap();
        assert!(again >= current);
    }

    #[test]
    fn env_selects_the_fallback_backend() {
        // Do not mutate the environment (other tests run concurrently);
        // just pin the explicit constructors.
        let poller = Poller::with_backend(Backend::Poll).unwrap();
        assert_eq!(poller.backend(), Backend::Poll);
        #[cfg(target_os = "linux")]
        {
            let poller = Poller::with_backend(Backend::Epoll).unwrap();
            assert_eq!(poller.backend(), Backend::Epoll);
        }
    }
}
