//! SHA-1 paths agree: the hardware compression (SHA-NI, when the host
//! has it), the portable software compression and the streaming
//! `sha1()` must give the same digests, and the UTS trees built on them
//! must not move.
//!
//! Every `sha1_paths_*` test prints which comparison it ran, so
//! `cargo test -p sws-workloads --test sha1_paths -- --nocapture` shows
//! whether the hardware case ran or was skipped on this host.

use sws_workloads::sha1::{
    compress_hw, compress_soft, root_state, sha1, sha_ni_available, spawn_child, spawn_child_soft,
    Block, DIGEST_BYTES,
};
use sws_workloads::uts::UtsParams;

/// Chained child derivations per differential run.
const CHAIN: u32 = 100_000;

fn hex(d: &[u8]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

/// Whether the hardware path runs on this host; says so either way.
fn hw_case(test: &str) -> bool {
    let hw = sha_ni_available();
    if hw {
        println!("{test}: comparing sha-ni against soft");
    } else {
        println!("{test}: host has no SHA extensions; hardware case skipped");
    }
    hw
}

fn hw(state: &mut [u32; 5], block: &Block) {
    assert!(compress_hw(state, block), "hardware path unavailable");
}

/// A digest with this file's own padding, one `compress` per block:
/// independent of the padding inside `sha1()` and `spawn_child`.
fn digest_via(compress: fn(&mut [u32; 5], &Block), data: &[u8]) -> [u8; DIGEST_BYTES] {
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    let mut h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
    for block in msg.as_chunks::<64>().0 {
        compress(&mut h, block);
    }
    let mut out = [0u8; DIGEST_BYTES];
    for (chunk, word) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The UTS child message `parent || index`.
fn child_msg(parent: &[u8; DIGEST_BYTES], index: u32) -> [u8; DIGEST_BYTES + 4] {
    let mut m = [0u8; DIGEST_BYTES + 4];
    m[..DIGEST_BYTES].copy_from_slice(parent);
    m[DIGEST_BYTES..].copy_from_slice(&index.to_be_bytes());
    m
}

#[test]
fn sha1_paths_agree_on_fips_vectors() {
    let hw_ok = hw_case("sha1_paths_agree_on_fips_vectors");
    let vectors: [(Vec<u8>, &str); 5] = [
        (b"abc".to_vec(), "a9993e364706816aba3e25717850c26c9cd0d89d"),
        (b"".to_vec(), "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu".to_vec(),
            "a49b2446a02c645bf419f995b67091253a04a259",
        ),
        (vec![b'a'; 1_000_000], "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
    ];
    for (data, want) in &vectors {
        assert_eq!(hex(&sha1(data)), *want, "sha1(), {} bytes", data.len());
        assert_eq!(
            hex(&digest_via(compress_soft, data)),
            *want,
            "soft, {} bytes",
            data.len()
        );
        if hw_ok {
            assert_eq!(
                hex(&digest_via(hw, data)),
                *want,
                "sha-ni, {} bytes",
                data.len()
            );
        }
    }
}

#[test]
fn sha1_paths_agree_over_chained_children() {
    let hw_ok = hw_case("sha1_paths_agree_over_chained_children");
    let mut s = root_state(19);
    for i in 0..CHAIN {
        // Spread the index over all four bytes, not just the low one.
        let index = i.wrapping_mul(0x9E37_79B9);
        let soft = spawn_child_soft(&s, index);
        let msg = child_msg(&s, index);
        assert_eq!(soft, sha1(&msg), "soft vs sha1() at child {i}");
        assert_eq!(
            soft,
            spawn_child(&s, index),
            "soft vs selected at child {i}"
        );
        if hw_ok {
            assert_eq!(soft, digest_via(hw, &msg), "soft vs sha-ni at child {i}");
        }
        s = soft;
    }
    // The chain's end, computed before the hardware path existed: a
    // changed digest fails here, not only in the scheduler goldens.
    assert_eq!(hex(&s), "19d12a54963c9e41a03430488ffa844def1df213");
}

#[test]
fn sha1_paths_agree_block_by_block() {
    let hw_ok = hw_case("sha1_paths_agree_block_by_block");
    if !hw_ok {
        return;
    }
    // Arbitrary blocks (not UTS-padded ones) chained through both paths.
    let mut x: u64 = 0x243F_6A88_85A3_08D3;
    let mut soft_h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
    let mut hw_h = soft_h;
    for i in 0..CHAIN {
        let mut block = [0u8; 64];
        for word in block.chunks_exact_mut(8) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            word.copy_from_slice(&x.to_le_bytes());
        }
        compress_soft(&mut soft_h, &block);
        hw(&mut hw_h, &block);
        assert_eq!(soft_h, hw_h, "block {i}");
    }
}

#[test]
fn uts_trees_are_pinned() {
    assert_eq!(UtsParams::geo_small(12).sequential_count().nodes, 104_259);
    assert_eq!(UtsParams::geo_small(15).sequential_count().nodes, 771_955);
}
