//! Minimal readiness polling: the primitive under the server's event loops.
//!
//! No async runtime or polling crate is available to this workspace, so the
//! event loops sit directly on two Linux kernel interfaces, declared here as
//! the crate's only FFI:
//!
//! * **epoll** (`epoll_create1` / `epoll_ctl` / `epoll_wait`) — a
//!   level-triggered readiness set over any number of file descriptors;
//!   [`Poller::wait`] parks an event-loop thread until a registered socket
//!   is readable/writable (or a timeout passes).
//! * **eventfd** — a 64-bit counter fd used as a loop's [`Waker`]: the
//!   accepting loop dealing it a socket, a watch fan-out queueing an event
//!   for one of its subscribers, and shutdown requests bump the counter,
//!   which makes the fd readable and wakes `epoll_wait` without any
//!   loopback connection.
//!
//! Everything `unsafe` in the crate is confined to the small `sys` block at
//! the bottom of this file; the [`Poller`] / [`Waker`] wrappers expose a
//! safe, `std::io`-flavoured API. On non-Linux targets the module still
//! compiles but [`Poller::new`] and [`Waker::new`] report `Unsupported`.

#[cfg(target_os = "linux")]
use std::os::fd::{AsRawFd, RawFd};

/// What a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Readable readiness only (idle connections parked for requests).
    Read,
    /// Writable readiness only (flushing a backed-up response buffer). A
    /// peer's half-close is not reported — it would fire on every wait —
    /// until read interest resumes; a full close or an error still is.
    Write,
    /// Both directions at once.
    ReadWrite,
}

/// One readiness event returned by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// The fd can accept more outgoing bytes.
    pub writable: bool,
    /// The peer closed or the fd errored; the connection is finished.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{sys, Event, Interest};
    use std::io;
    use std::os::fd::RawFd;

    /// A level-triggered epoll instance owning its descriptor.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        /// Creates an epoll instance (close-on-exec).
        ///
        /// # Errors
        /// Reports `epoll_create1` failures.
        pub fn new() -> io::Result<Poller> {
            let epfd = sys::epoll_create1_cloexec()?;
            Ok(Poller { epfd })
        }

        /// Registers `fd` under `token` with the given interest.
        ///
        /// # Errors
        /// Reports `epoll_ctl` failures (e.g. the fd is already registered).
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            sys::epoll_ctl(
                self.epfd,
                sys::EPOLL_CTL_ADD,
                fd,
                events_of(interest),
                token,
            )
        }

        /// Changes an existing registration's interest (same token or a new
        /// one).
        ///
        /// # Errors
        /// Reports `epoll_ctl` failures.
        pub fn rearm(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            sys::epoll_ctl(
                self.epfd,
                sys::EPOLL_CTL_MOD,
                fd,
                events_of(interest),
                token,
            )
        }

        /// Removes an fd from the readiness set while the fd lives on (a
        /// listener paused on descriptor exhaustion). Closing a socket
        /// deregisters it implicitly.
        ///
        /// # Errors
        /// Reports `epoll_ctl` failures.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks until at least one registered fd is ready or `timeout_ms`
        /// elapses (`None` blocks indefinitely), filling `events`. Returns
        /// the number of events delivered (0 on timeout). `EINTR` is
        /// retried internally.
        ///
        /// # Errors
        /// Reports `epoll_wait` failures.
        pub fn wait(&self, events: &mut Vec<Event>, timeout_ms: Option<u64>) -> io::Result<usize> {
            events.clear();
            let timeout = timeout_ms.map_or(-1i32, |ms| i32::try_from(ms).unwrap_or(i32::MAX));
            let mut raw = [sys::EpollEvent::default(); 64];
            let n = loop {
                match sys::epoll_wait(self.epfd, &mut raw, timeout) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            };
            for event in &raw[..n] {
                let bits = event.events;
                events.push(Event {
                    token: event.token,
                    readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                    writable: bits & sys::EPOLLOUT != 0,
                    hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            sys::close(self.epfd);
        }
    }

    fn events_of(interest: Interest) -> u32 {
        match interest {
            Interest::Read => sys::EPOLLRDHUP | sys::EPOLLIN,
            Interest::Write => sys::EPOLLOUT,
            Interest::ReadWrite => sys::EPOLLRDHUP | sys::EPOLLIN | sys::EPOLLOUT,
        }
    }

    /// An eventfd-backed wakeup handle: any thread may [`Waker::wake`] the
    /// event loop; the loop drains the counter with [`Waker::drain`] when
    /// its registration fires.
    #[derive(Debug)]
    pub struct Waker {
        fd: RawFd,
    }

    impl Waker {
        /// Creates a non-blocking, close-on-exec eventfd.
        ///
        /// # Errors
        /// Reports `eventfd` failures.
        pub fn new() -> io::Result<Waker> {
            Ok(Waker {
                fd: sys::eventfd_nonblocking()?,
            })
        }

        /// The raw fd to register with a [`Poller`] (readable when woken).
        #[must_use]
        pub fn raw_fd(&self) -> RawFd {
            self.fd
        }

        /// Makes the eventfd readable, waking a blocked [`Poller::wait`].
        /// Safe from any thread; failures are ignored (the counter
        /// saturating still leaves the fd readable).
        pub fn wake(&self) {
            sys::eventfd_write(self.fd, 1);
        }

        /// Consumes all pending wakeups; returns the summed counter (0 when
        /// the fd was not actually signalled).
        pub fn drain(&self) -> u64 {
            sys::eventfd_read(self.fd)
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            sys::close(self.fd);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{Event, Interest};
    use std::io;

    /// Readiness polling is Linux-only. This stub keeps the API compiling
    /// everywhere.
    #[derive(Debug)]
    pub struct Poller {}

    impl Poller {
        /// Always `Unsupported` off Linux.
        ///
        /// # Errors
        /// Always.
        pub fn new() -> io::Result<Poller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "readiness polling needs Linux epoll",
            ))
        }

        /// Unreachable (no instance can exist).
        ///
        /// # Errors
        /// Never returns.
        pub fn register(&self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            unreachable!("no Poller instance exists off Linux")
        }

        /// Unreachable (no instance can exist).
        ///
        /// # Errors
        /// Never returns.
        pub fn rearm(&self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            unreachable!("no Poller instance exists off Linux")
        }

        /// Unreachable (no instance can exist).
        ///
        /// # Errors
        /// Never returns.
        pub fn deregister(&self, _fd: i32) -> io::Result<()> {
            unreachable!("no Poller instance exists off Linux")
        }

        /// Unreachable (no instance can exist).
        ///
        /// # Errors
        /// Never returns.
        pub fn wait(
            &self,
            _events: &mut Vec<Event>,
            _timeout_ms: Option<u64>,
        ) -> io::Result<usize> {
            unreachable!("no Poller instance exists off Linux")
        }
    }

    /// Stub waker for non-Linux targets.
    #[derive(Debug)]
    pub struct Waker {}

    impl Waker {
        /// Always `Unsupported` off Linux.
        ///
        /// # Errors
        /// Always.
        pub fn new() -> io::Result<Waker> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "eventfd wakeups need Linux",
            ))
        }

        /// Unreachable (no instance can exist).
        #[must_use]
        pub fn raw_fd(&self) -> i32 {
            unreachable!("no Waker instance exists off Linux")
        }

        /// Unreachable (no instance can exist).
        pub fn wake(&self) {}

        /// Unreachable (no instance can exist).
        pub fn drain(&self) -> u64 {
            0
        }
    }
}

pub use imp::{Poller, Waker};

/// Raw-fd view of any socket type, re-exported so the server does not need
/// its own platform conditionals.
#[cfg(target_os = "linux")]
pub fn raw_fd_of<T: AsRawFd>(socket: &T) -> RawFd {
    socket.as_raw_fd()
}

/// The FFI layer: the only `unsafe` code in the crate. Each wrapper
/// converts the C return convention (-1 + `errno`) into `io::Result` and
/// never hands raw pointers upward.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_void};

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;

    /// The kernel's `struct epoll_event`. On x86-64 the kernel ABI packs
    /// it (no padding between the 32-bit mask and the 64-bit data word).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Debug, Clone, Copy, Default)]
    pub struct EpollEvent {
        pub events: u32,
        pub token: u64,
    }

    mod ffi {
        use super::EpollEvent;
        use std::os::raw::{c_int, c_uint, c_void};
        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
            pub fn close(fd: c_int) -> c_int;
            pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
            pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        }
    }

    fn check(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub fn epoll_create1_cloexec() -> io::Result<RawFd> {
        // SAFETY: epoll_create1 takes no pointers; the returned fd is owned
        // by the caller.
        check(unsafe { ffi::epoll_create1(EPOLL_CLOEXEC) })
    }

    pub fn epoll_ctl(epfd: RawFd, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, token };
        // SAFETY: `event` outlives the call; the kernel copies it before
        // returning (and ignores it entirely for EPOLL_CTL_DEL).
        check(unsafe { ffi::epoll_ctl(epfd, op, fd, &mut event) }).map(|_| ())
    }

    pub fn epoll_wait(
        epfd: RawFd,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        let capacity = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
        // SAFETY: the buffer pointer/capacity describe a live mutable
        // slice; the kernel writes at most `capacity` entries.
        let n = check(unsafe { ffi::epoll_wait(epfd, events.as_mut_ptr(), capacity, timeout_ms) })?;
        #[allow(clippy::cast_sign_loss)]
        Ok(n as usize)
    }

    pub fn eventfd_nonblocking() -> io::Result<RawFd> {
        // SAFETY: eventfd takes no pointers; the returned fd is owned by
        // the caller.
        check(unsafe { ffi::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })
    }

    pub fn eventfd_write(fd: RawFd, value: u64) {
        let bytes = value.to_ne_bytes();
        // SAFETY: the 8-byte buffer lives across the call; eventfd writes
        // are atomic at this size.
        let _ = unsafe { ffi::write(fd, bytes.as_ptr().cast::<c_void>(), bytes.len()) };
    }

    pub fn eventfd_read(fd: RawFd) -> u64 {
        let mut bytes = [0u8; 8];
        // SAFETY: the 8-byte buffer lives across the call and matches the
        // eventfd read size.
        let n = unsafe { ffi::read(fd, bytes.as_mut_ptr().cast::<c_void>(), bytes.len()) };
        if n == 8 {
            u64::from_ne_bytes(bytes)
        } else {
            0
        }
    }

    pub fn close(fd: RawFd) {
        // SAFETY: the owning wrapper calls this exactly once, on drop.
        let _ = unsafe { ffi::close(fd) };
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn waker_wakes_a_blocked_poller() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.register(waker.raw_fd(), 7, Interest::Read).unwrap();
        let mut events = Vec::new();
        // nothing pending: a short wait times out
        assert_eq!(poller.wait(&mut events, Some(10)).unwrap(), 0);
        let remote = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || remote.wake());
        // the wake from the other thread unblocks the wait
        assert_eq!(poller.wait(&mut events, Some(2_000)).unwrap(), 1);
        handle.join().unwrap();
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(waker.drain() >= 1);
        // drained: the level-triggered registration goes quiet again
        assert_eq!(poller.wait(&mut events, Some(10)).unwrap(), 0);
    }

    #[test]
    fn sockets_report_read_write_and_hangup_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(raw_fd_of(&listener), 1, Interest::Read)
            .unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        // the pending accept makes the listener readable
        assert!(poller.wait(&mut events, Some(2_000)).unwrap() >= 1);
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller
            .register(raw_fd_of(&server_side), 2, Interest::ReadWrite)
            .unwrap();
        // a fresh connection with empty buffers is writable
        assert!(poller.wait(&mut events, Some(2_000)).unwrap() >= 1);
        assert!(events.iter().any(|e| e.token == 2 && e.writable));
        // bytes from the client flip it readable
        poller
            .rearm(raw_fd_of(&server_side), 2, Interest::Read)
            .unwrap();
        client.write_all(b"ping\n").unwrap();
        assert!(poller.wait(&mut events, Some(2_000)).unwrap() >= 1);
        assert!(events.iter().any(|e| e.token == 2 && e.readable));
        let mut buf = [0u8; 8];
        let mut server_read = &server_side;
        assert_eq!(server_read.read(&mut buf).unwrap(), 5);
        // client hangs up: the event reports it
        drop(client);
        assert!(poller.wait(&mut events, Some(2_000)).unwrap() >= 1);
        assert!(events.iter().any(|e| e.token == 2 && e.hangup));
        poller.deregister(raw_fd_of(&server_side)).unwrap();
    }
}
