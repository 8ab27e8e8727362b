//! FIPS-180 SHA-1, implemented from scratch.
//!
//! UTS derives its splittable deterministic random stream from SHA-1
//! ("the tree is constructed using a random stream generated using the
//! SHA-1 secure hash algorithm", paper §5.2.2). SHA-1 is long broken for
//! security, but UTS only needs a well-mixed deterministic function —
//! and using the same primitive keeps our trees statistically faithful
//! to the original benchmark. Implemented here rather than pulled in as
//! a dependency (see DESIGN.md's dependency policy); verified against
//! the FIPS-180 / RFC 3174 test vectors below.
//!
//! Every digest runs through one allocation-free compression function
//! over a single 64-byte block. On x86_64 CPUs with the SHA extensions
//! (SHA-NI) that function is the hardware one, selected at runtime from
//! `std::arch`; everywhere else it is [`compress_soft`], the portable
//! reference the hardware path is tested against. A UTS child message
//! is 24 bytes, so [`spawn_child`] is exactly one compression over a
//! block padded on the stack — the whole per-node cost of the tree.

/// Digest size in bytes.
pub const DIGEST_BYTES: usize = 20;

/// One SHA-1 message block.
pub type Block = [u8; 64];

/// The initial hash state (FIPS-180 §5.3.1).
const IV: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// Whether this host runs the SHA-NI compression: an x86_64 CPU that
/// reports both `sha` and `sse4.1`. Otherwise every digest runs the
/// software rounds.
#[inline]
pub fn sha_ni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1") {
        return true;
    }
    false
}

/// Compress one block into `state` with the host's selected function.
#[inline]
fn compress(state: &mut [u32; 5], block: &Block) {
    if !compress_hw(state, block) {
        compress_soft(state, block);
    }
}

/// Compress one block into `state` with SHA-NI. Returns `false`, and
/// leaves `state` untouched, when the host has no SHA extensions (always
/// on targets other than x86_64).
#[inline]
pub fn compress_hw(state: &mut [u32; 5], block: &Block) -> bool {
    #[cfg(target_arch = "x86_64")]
    if sha_ni_available() {
        // SAFETY: `sha_ni_available()` just confirmed the CPU supports
        // `sha` and `sse4.1` (which implies the `ssse3` and `sse2` the
        // function also enables), the only precondition of the call.
        unsafe { shani::compress(state, block) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (state, block);
    false
}

/// The portable SHA-1 compression function: 80 rounds over one block.
pub fn compress_soft(state: &mut [u32; 5], block: &Block) {
    let mut w = [0u32; 80];
    for (i, word) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }

    let [mut a, mut b, mut c, mut d, mut e] = *state;
    // Four 20-round stretches, each with its own round function and
    // constant, so no round branches on its index.
    let mut stretch = |w: &[u32], f: fn(u32, u32, u32) -> u32, k: u32| {
        for &wi in w {
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f(b, c, d))
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
    };
    stretch(&w[..20], |b, c, d| (b & c) | (!b & d), 0x5A827999);
    stretch(&w[20..40], |b, c, d| b ^ c ^ d, 0x6ED9EBA1);
    stretch(&w[40..60], |b, c, d| (b & c) | (b & d) | (c & d), 0x8F1BBCDC);
    stretch(&w[60..], |b, c, d| b ^ c ^ d, 0xCA62C1D6);
    for (h, v) in state.iter_mut().zip([a, b, c, d, e]) {
        *h = h.wrapping_add(v);
    }
}

#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::*;

    use super::Block;

    /// One SHA-1 block with the SHA extensions, after Intel's reference
    /// sequence: 20 `sha1rnds4` groups of four rounds each, the message
    /// schedule kept in four rotating registers (`sha1msg1`, `xor`,
    /// `sha1msg2`) and `sha1nexte` deriving each group's E term.
    ///
    /// # Safety
    ///
    /// Calling it from code compiled without these target features is
    /// sound only on a CPU that supports `sha` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    // The last groups expand schedule stores that their constant range
    // guards switch off; the compiler folds them away but still warns.
    #[allow(unused_assignments)]
    pub(super) fn compress(state: &mut [u32; 5], block: &Block) {
        // Words in big-endian order, lane 3 first: the layout sha1rnds4
        // expects for both the message and ABCD.
        let be = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
        let p = block.as_ptr().cast::<__m128i>();
        // SAFETY: `block` is 64 bytes, so the loads at 16-byte offsets
        // 0..=3 stay inside it; `_mm_loadu_si128` needs no alignment.
        let raw = unsafe {
            [
                _mm_loadu_si128(p),
                _mm_loadu_si128(p.add(1)),
                _mm_loadu_si128(p.add(2)),
                _mm_loadu_si128(p.add(3)),
            ]
        };
        let mut msg = raw.map(|m| _mm_shuffle_epi8(m, be));

        let abcd_in = _mm_set_epi32(
            state[0] as i32,
            state[1] as i32,
            state[2] as i32,
            state[3] as i32,
        );
        let e_in = _mm_set_epi32(state[4] as i32, 0, 0, 0);
        let mut abcd = abcd_in;
        let mut prev = abcd;
        // Group `g` runs rounds 4g..4g+3 with function `f` on message
        // vector `g % 4`, then advances the schedule so vectors
        // `g + 1..=g + 3` are ready in time. Unrolled by the macro so
        // every index and range test is a constant.
        macro_rules! group {
            ($g:literal, $f:literal) => {{
                let g: usize = $g;
                let m = msg[g % 4];
                let wk = if g == 0 {
                    _mm_add_epi32(e_in, m)
                } else {
                    _mm_sha1nexte_epu32(prev, m)
                };
                prev = abcd;
                abcd = _mm_sha1rnds4_epu32::<$f>(abcd, wk);
                if (3..=18).contains(&g) {
                    msg[(g + 1) % 4] = _mm_sha1msg2_epu32(msg[(g + 1) % 4], m);
                }
                if (1..=16).contains(&g) {
                    msg[(g + 3) % 4] = _mm_sha1msg1_epu32(msg[(g + 3) % 4], m);
                }
                if (2..=17).contains(&g) {
                    msg[(g + 2) % 4] = _mm_xor_si128(msg[(g + 2) % 4], m);
                }
            }};
        }
        group!(0, 0);
        group!(1, 0);
        group!(2, 0);
        group!(3, 0);
        group!(4, 0);
        group!(5, 1);
        group!(6, 1);
        group!(7, 1);
        group!(8, 1);
        group!(9, 1);
        group!(10, 2);
        group!(11, 2);
        group!(12, 2);
        group!(13, 2);
        group!(14, 2);
        group!(15, 3);
        group!(16, 3);
        group!(17, 3);
        group!(18, 3);
        group!(19, 3);
        let e = _mm_sha1nexte_epu32(prev, e_in);
        let abcd = _mm_add_epi32(abcd, abcd_in);

        state[0] = _mm_extract_epi32::<3>(abcd) as u32;
        state[1] = _mm_extract_epi32::<2>(abcd) as u32;
        state[2] = _mm_extract_epi32::<1>(abcd) as u32;
        state[3] = _mm_extract_epi32::<0>(abcd) as u32;
        state[4] = _mm_extract_epi32::<3>(e) as u32;
    }
}

fn digest(state: [u32; 5]) -> [u8; DIGEST_BYTES] {
    let mut out = [0u8; DIGEST_BYTES];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Compute the SHA-1 digest of `data`: whole blocks straight from the
/// input, then the padded tail (0x80, zeros, 64-bit big-endian bit
/// length) from a stack buffer of one or two blocks.
pub fn sha1(data: &[u8]) -> [u8; DIGEST_BYTES] {
    let mut h = IV;
    let (blocks, rest) = data.as_chunks::<64>();
    for block in blocks {
        compress(&mut h, block);
    }

    let mut tail = [[0u8; 64]; 2];
    let n_tail = if rest.len() < 56 { 1 } else { 2 };
    let flat = tail.as_flattened_mut();
    flat[..rest.len()].copy_from_slice(rest);
    flat[rest.len()] = 0x80;
    let bit_len = (data.len() as u64).wrapping_mul(8);
    flat[n_tail * 64 - 8..n_tail * 64].copy_from_slice(&bit_len.to_be_bytes());
    for block in &tail[..n_tail] {
        compress(&mut h, block);
    }
    digest(h)
}

/// UTS child derivation: digest of `parent || child_index` (index as
/// 4-byte big-endian), matching the original benchmark's brg_sha1 rng
/// spawn operation. The 24-byte message plus its padding is one block.
#[inline]
pub fn spawn_child(parent: &[u8; DIGEST_BYTES], child_index: u32) -> [u8; DIGEST_BYTES] {
    spawn_child_with(compress, parent, child_index)
}

/// [`spawn_child`] through the software rounds regardless of the host:
/// the reference the hardware path is checked and benchmarked against.
pub fn spawn_child_soft(parent: &[u8; DIGEST_BYTES], child_index: u32) -> [u8; DIGEST_BYTES] {
    spawn_child_with(compress_soft, parent, child_index)
}

#[inline(always)]
fn spawn_child_with(
    compress: impl FnOnce(&mut [u32; 5], &Block),
    parent: &[u8; DIGEST_BYTES],
    child_index: u32,
) -> [u8; DIGEST_BYTES] {
    const MSG_BYTES: usize = DIGEST_BYTES + 4;
    let mut block = [0u8; 64];
    block[..DIGEST_BYTES].copy_from_slice(parent);
    block[DIGEST_BYTES..MSG_BYTES].copy_from_slice(&child_index.to_be_bytes());
    block[MSG_BYTES] = 0x80;
    block[56..].copy_from_slice(&(MSG_BYTES as u64 * 8).to_be_bytes());
    let mut h = IV;
    compress(&mut h, &block);
    digest(h)
}

/// UTS root derivation from a scalar seed.
pub fn root_state(seed: u32) -> [u8; DIGEST_BYTES] {
    sha1(&seed.to_be_bytes())
}

/// Map a digest to a uniform value in [0, 1): the leading 31 bits as a
/// positive integer over 2³¹, matching UTS's `rng_toProb(rng_rand(state))`.
pub fn to_prob(state: &[u8; DIGEST_BYTES]) -> f64 {
    let v = u32::from_be_bytes([state[0], state[1], state[2], state[3]]) & 0x7FFF_FFFF;
    v as f64 / (1u64 << 31) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn empty_message() {
        assert_eq!(
            hex(&sha1(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha1(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn padding_boundaries() {
        // Lengths straddling the 55/56/64-byte padding edges must all
        // produce distinct, stable digests.
        let mut digests = std::collections::HashSet::new();
        for len in 54..=66 {
            let data = vec![0x5Au8; len];
            assert!(digests.insert(sha1(&data)), "collision at len {len}");
        }
    }

    #[test]
    fn child_spawning_is_deterministic_and_splittable() {
        let root = root_state(19);
        let c0 = spawn_child(&root, 0);
        let c1 = spawn_child(&root, 1);
        assert_ne!(c0, c1, "children differ");
        assert_eq!(c0, spawn_child(&root, 0), "deterministic");
        // Grandchildren from different parents differ.
        assert_ne!(spawn_child(&c0, 0), spawn_child(&c1, 0));
    }

    #[test]
    fn to_prob_in_unit_interval_and_spread() {
        let mut lo = f64::MAX;
        let mut hi: f64 = 0.0;
        let mut s = root_state(7);
        for i in 0..1000 {
            let p = to_prob(&s);
            assert!((0.0..1.0).contains(&p));
            lo = lo.min(p);
            hi = hi.max(p);
            s = spawn_child(&s, i);
        }
        // A healthy mix should span most of the interval.
        assert!(lo < 0.05 && hi > 0.95, "lo {lo}, hi {hi}");
    }
}
