//! Stackful coroutines for the virtual-time executor.
//!
//! Every PE of a virtual-time world runs on a stack of its own, and all of
//! them share the one OS thread that called [`crate::run_world`]. A PE that
//! must wait for its turn saves its callee-saved registers on its own
//! stack and switches to the stack of the PE that runs next; nothing here
//! knows about PEs or clocks ([`crate::vclock::VClock`] decides who runs).
//!
//! # Stack layout
//!
//! ```text
//!  low addresses                                         high addresses
//!  | guard (PROT_NONE) |  usable stack, grows down  <-- | top
//!  |<-- GUARD_BYTES -->|<----------- STACK_BYTES ------------>|
//! ```
//!
//! Each stack is one anonymous `mmap(MAP_NORESERVE)` mapping: a
//! `PROT_NONE` guard region at the low end, so an overflow faults instead
//! of running into the neighbouring mapping, and 2 MiB of usable stack
//! (std's default thread stack) above it. Pages are committed on first
//! touch, so a PE that never recurses deeply costs a few pages.
//!
//! # Context switch
//!
//! [`switch`] pushes the callee-saved state of the running context onto
//! its own stack, stores the stack pointer in the caller's save slot,
//! loads the target's saved stack pointer, pops the target's state and
//! returns into it. The compiler sees an ordinary `extern "C"` call, so
//! everything caller-saved is already spilled. Saved per target:
//!
//! * x86_64: rbx, rbp, r12–r15, MXCSR and the x87 control word;
//! * aarch64: x19–x29, lr, sp and d8–d15.
//!
//! A fresh stack is laid out as if it had switched away from the first
//! instruction of a trampoline that calls `coro_main(body)`, with a zero
//! return address above it so unwinders and debuggers stop there.

use std::cell::Cell;
use std::ffi::c_void;
use std::io;
use std::ptr::{null_mut, NonNull};

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "sws-shmem's virtual-time executor supports Linux on x86_64 and aarch64 only \
     (x86_64-unknown-linux-*, aarch64-unknown-linux-*)"
);

/// Usable bytes per PE stack: std's default thread stack size.
pub(crate) const STACK_BYTES: usize = 2 << 20;

/// Guard region below each stack. 64 KiB is a whole number of pages for
/// every Linux page size on the supported targets (4, 16 or 64 KiB).
const GUARD_BYTES: usize = 64 << 10;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;

// The libc that std already links on Linux provides these.
extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
}

/// A coroutine body. It must never return: it ends by switching away for
/// good (the executor's `exit`), and `coro_main` aborts if it comes back.
pub(crate) type Body<'a> = Box<dyn FnMut() + 'a>;

/// One PE stack: a guard region plus [`STACK_BYTES`] of usable stack.
pub(crate) struct Stack {
    base: NonNull<c_void>,
    len: usize,
}

impl Stack {
    /// Map a fresh stack.
    pub(crate) fn new() -> io::Result<Stack> {
        let len = GUARD_BYTES + STACK_BYTES;
        // SAFETY: a private anonymous mapping at a kernel-chosen address
        // aliases no existing memory; failure is reported as MAP_FAILED.
        let raw = unsafe {
            mmap(
                null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        if raw as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        let Some(base) = NonNull::new(raw) else {
            return Err(io::Error::other("mmap returned a null stack"));
        };
        let stack = Stack { base, len };
        // SAFETY: the guard is the first GUARD_BYTES of the mapping just
        // created and owned by `stack`; nothing lives there yet.
        if unsafe { mprotect(base.as_ptr(), GUARD_BYTES, PROT_NONE) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(stack)
    }

    /// Highest address of the stack (exclusive), 16-byte aligned.
    fn top(&self) -> usize {
        self.base.as_ptr() as usize + self.len
    }

    /// Lay the stack out so that the first [`switch`] into the returned
    /// stack pointer runs `body` on it.
    ///
    /// `body` must stay valid, and must not move, until the coroutine
    /// has switched away for the last time.
    pub(crate) fn prepare(&self, body: &mut Body<'_>) -> usize {
        let arg = (body as *mut Body<'_>).cast::<u8>() as usize;
        let entry = coro_main as *const () as usize;
        let frame = arch::initial_frame(entry, arg);
        let sp = self.top() - std::mem::size_of_val(&frame);
        debug_assert_eq!(sp % 16, 0);
        // SAFETY: `sp..top` is inside the writable part of this mapping
        // (the frame is a few words, far above the guard) and 8-aligned.
        unsafe { std::ptr::write(sp as *mut _, frame) };
        sp
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base..base+len` is exactly the mapping made in `new`,
        // unmapped nowhere else; no coroutine runs on it any more (the
        // executor drops stacks only after every PE has exited).
        unsafe { munmap(self.base.as_ptr(), self.len) };
    }
}

/// Save the running context into `save` and resume the context whose
/// stack pointer is `to`. Returns when some later `switch` resumes the
/// saved context.
///
/// # Safety
///
/// `save` must be the slot of the context running now. `to` must come
/// from [`Stack::prepare`] or from the save slot of a suspended context,
/// its stack must still be mapped (and, for a prepared stack, its body
/// alive and in place), and it must not be resumed twice without
/// switching away in between.
// SAFETY: unsafe to call because of the contract above; every caller
// states how it upholds it.
#[inline]
pub(crate) unsafe fn switch(save: &Cell<usize>, to: usize) {
    // SAFETY: forwarded to the caller (see above).
    unsafe { arch::switch_raw(save.as_ptr(), to) }
}

/// First Rust frame of every coroutine.
extern "C" fn coro_main(arg: usize) -> ! {
    // SAFETY: `arg` is the `&mut Body` that `Stack::prepare` was given;
    // its owner keeps it alive and in place until the body exits.
    let body = unsafe { &mut *(arg as *mut Body<'static>) };
    body();
    // A body ends by switching away for good. One that returns broke that
    // contract, and above this frame there is nothing to return to.
    std::process::abort()
}

#[cfg(target_arch = "x86_64")]
mod arch {
    use std::arch::naked_asm;

    /// Saved state as `switch_raw` leaves it, lowest address first,
    /// followed by the trampoline's return slot and the stack terminator.
    #[repr(C)]
    pub(super) struct Frame {
        /// MXCSR in the low 4 bytes, x87 control word in the next 2.
        fpu: u64,
        r15: u64,
        r14: u64,
        r13: u64,
        r12: u64,
        rbx: u64,
        rbp: u64,
        ret: u64,
        /// Zero return address: the end of the call chain.
        end: u64,
        pad: u64,
    }

    pub(super) fn initial_frame(entry: usize, arg: usize) -> Frame {
        Frame {
            // Default MXCSR (all exceptions masked, round to nearest) and
            // default x87 control word, as a new thread starts with.
            fpu: 0x037F_0000_1F80,
            r15: 0,
            r14: 0,
            r13: 0,
            r12: entry as u64,
            rbx: arg as u64,
            rbp: 0,
            ret: trampoline as *const () as usize as u64,
            end: 0,
            pad: 0,
        }
    }

    /// `switch_raw(save: *mut usize, to: usize)`.
    ///
    /// # Safety
    ///
    /// As [`super::switch`], with `save` a valid pointer to its slot.
    // SAFETY: naked, so the body below is the whole function: it saves
    // exactly the callee-saved state the C ABI requires and restores the
    // target's; the contract of `super::switch` covers `to`.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn switch_raw(_save: *mut usize, _to: usize) {
        naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "sub rsp, 8",
            "stmxcsr [rsp]",
            "fnstcw [rsp + 4]",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "ldmxcsr [rsp]",
            "fldcw [rsp + 4]",
            "add rsp, 8",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// Entered by the first switch into a fresh stack, with the body
    /// pointer in rbx and `coro_main` in r12; rsp is 16-byte aligned.
    ///
    /// # Safety
    ///
    /// Never called: only returned into by `switch_raw`.
    // SAFETY: naked; only ever entered by the first switch into a stack
    // laid out by `initial_frame`, never called.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        naked_asm!("mov rdi, rbx", "call r12", "ud2")
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    use std::arch::naked_asm;

    /// Saved state as `switch_raw` leaves it, lowest address first,
    /// followed by a zeroed frame record that ends the call chain.
    #[repr(C)]
    pub(super) struct Frame {
        /// x19..=x28.
        x: [u64; 10],
        /// Frame pointer (x29).
        fp: u64,
        /// Link register (x30): where `ret` goes.
        lr: u64,
        /// d8..=d15.
        d: [u64; 8],
        /// Terminating frame record (fp, lr) = (0, 0).
        end: [u64; 2],
    }

    pub(super) fn initial_frame(entry: usize, arg: usize) -> Frame {
        let mut x = [0u64; 10];
        x[0] = arg as u64;
        x[1] = entry as u64;
        Frame {
            x,
            fp: 0,
            lr: trampoline as *const () as usize as u64,
            d: [0; 8],
            end: [0; 2],
        }
    }

    /// `switch_raw(save: *mut usize, to: usize)`.
    ///
    /// # Safety
    ///
    /// As [`super::switch`], with `save` a valid pointer to its slot.
    // SAFETY: naked, so the body below is the whole function: it saves
    // exactly the callee-saved state the C ABI requires and restores the
    // target's; the contract of `super::switch` covers `to`.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn switch_raw(_save: *mut usize, _to: usize) {
        naked_asm!(
            "sub sp, sp, #160",
            "stp x19, x20, [sp, #0]",
            "stp x21, x22, [sp, #16]",
            "stp x23, x24, [sp, #32]",
            "stp x25, x26, [sp, #48]",
            "stp x27, x28, [sp, #64]",
            "stp x29, x30, [sp, #80]",
            "stp d8, d9, [sp, #96]",
            "stp d10, d11, [sp, #112]",
            "stp d12, d13, [sp, #128]",
            "stp d14, d15, [sp, #144]",
            "mov x2, sp",
            "str x2, [x0]",
            "mov sp, x1",
            "ldp x19, x20, [sp, #0]",
            "ldp x21, x22, [sp, #16]",
            "ldp x23, x24, [sp, #32]",
            "ldp x25, x26, [sp, #48]",
            "ldp x27, x28, [sp, #64]",
            "ldp x29, x30, [sp, #80]",
            "ldp d8, d9, [sp, #96]",
            "ldp d10, d11, [sp, #112]",
            "ldp d12, d13, [sp, #128]",
            "ldp d14, d15, [sp, #144]",
            "add sp, sp, #160",
            "ret",
        )
    }

    /// Entered by the first switch into a fresh stack, with the body
    /// pointer in x19 and `coro_main` in x20; sp is 16-byte aligned.
    ///
    /// # Safety
    ///
    /// Never called: only returned into by `switch_raw`.
    // SAFETY: naked; only ever entered by the first switch into a stack
    // laid out by `initial_frame`, never called.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        naked_asm!("mov x0, x19", "blr x20", "brk #1")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong between the caller and one coroutine: values cross in
    /// both directions and the callee-saved state of each side survives.
    #[test]
    fn switch_round_trips() {
        let host = Cell::new(0usize);
        let coro = Cell::new(0usize);
        let log = std::cell::RefCell::new(Vec::new());
        let stack = Stack::new().unwrap();
        let mut body: Body<'_> = Box::new(|| {
            for i in 0..3u32 {
                log.borrow_mut().push(i * 10 + 1);
                // Floating point across a switch must keep its rounding.
                let x = f64::from(i) / 3.0;
                // SAFETY: `host` holds the context that resumed us.
                unsafe { switch(&coro, host.get()) };
                log.borrow_mut().push((x * 3.0).round() as u32 * 10 + 2);
            }
            // SAFETY: as above; this body is never resumed again.
            unsafe { switch(&coro, host.get()) };
        });
        coro.set(stack.prepare(&mut body));
        for _ in 0..4 {
            // SAFETY: `coro` holds a prepared or suspended context.
            unsafe { switch(&host, coro.get()) };
        }
        assert_eq!(*log.borrow(), vec![1, 2, 11, 12, 21, 22]);
    }

    /// A deep (but bounded) recursion fits the 2 MiB stack.
    #[test]
    fn stack_holds_deep_frames() {
        fn depth(n: u32) -> u32 {
            // A 256-byte local per frame that the optimizer cannot drop.
            let pad = [n as u8; 256];
            std::hint::black_box(&pad);
            if n == 0 {
                0
            } else {
                1 + depth(n - 1)
            }
        }
        let host = Cell::new(0usize);
        let coro = Cell::new(0usize);
        let out = Cell::new(0u32);
        let stack = Stack::new().unwrap();
        let mut body: Body<'_> = Box::new(|| {
            out.set(depth(1_000));
            // SAFETY: `host` holds the context that resumed us.
            unsafe { switch(&coro, host.get()) };
        });
        coro.set(stack.prepare(&mut body));
        // SAFETY: `coro` holds a prepared context.
        unsafe { switch(&host, coro.get()) };
        assert_eq!(out.get(), 1_000);
    }
}
