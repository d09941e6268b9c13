//! The benchmark's foreign calls, for which the standard library has no
//! safe wrapper: waiting on the generator's sockets, tightening the timer
//! slack, and pinning threads to cores.
//!
//! The open-loop generator must sleep until either a response arrives or
//! the next request is due, whichever is first, with better than
//! millisecond resolution — `ppoll(2)` is the one call that does both.
//! Spinning instead would take a core from the server on a two-core host.

#![allow(unsafe_code)]

use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` of the 64-bit Linux ABIs.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of the CPU masks below: room for 1024 CPUs, the kernel's default
/// `CONFIG_NR_CPUS` ceiling on x86-64.
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, ascending; empty if the kernel
/// will not say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if status != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread — and every thread it spawns from now on — to
/// one CPU. Best effort: on failure the thread stays where it was.
pub fn pin_to_cpu(cpu: usize) {
    let mut mask = [0u64; MASK_WORDS];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

const PR_SET_TIMERSLACK: i32 = 29;

/// Asks the kernel to wake the calling thread's timed waits within a
/// microsecond of their deadline instead of the default 50: the open loop's
/// arrivals are then sent when they are due, and what lateness remains is
/// the host's wake-up latency. Best effort.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long (nanoseconds) and
    // changes nothing but the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000u64);
    }
}

/// Sleeps until one of `streams` is readable (or, with `writable`, can take
/// more bytes) or `timeout` has passed. Errors (`EINTR` included) return
/// early like a timeout: every caller re-checks its sockets and clock in a
/// loop anyway.
pub fn wait_ready(streams: [&TcpStream; 2], writable: bool, timeout: Duration) {
    // On the stack: the generator's wait must not show up as an allocation.
    let mut fds = streams.map(|stream| PollFd {
        fd: stream.as_raw_fd(),
        events: if writable { POLLIN | POLLOUT } else { POLLIN },
        revents: 0,
    });
    let timeout = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` points to `fds.len()` initialised `pollfd` records that
    // outlive the call, `timeout` to a valid `timespec`, and a null signal
    // mask is allowed; the descriptors are open because `streams` borrows
    // their owners.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as u64,
            &timeout,
            std::ptr::null(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn pinning_narrows_the_allowed_cpus_to_one() {
        std::thread::spawn(|| {
            let allowed = allowed_cpus();
            assert!(!allowed.is_empty());
            let target = *allowed.last().unwrap();
            pin_to_cpu(target);
            assert_eq!(allowed_cpus(), [target]);
            // A thread spawned after pinning inherits it.
            let inherited = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(inherited, [target]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn returns_on_timeout_and_on_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut served, _) = listener.accept().unwrap();

        let start = Instant::now();
        wait_ready([&client, &client], false, Duration::from_millis(20));
        assert!(
            start.elapsed() >= Duration::from_millis(19),
            "nothing to read: waits"
        );

        served.write_all(b"x").unwrap();
        let start = Instant::now();
        wait_ready([&client, &client], false, Duration::from_secs(5));
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "readable: returns early"
        );
    }
}
