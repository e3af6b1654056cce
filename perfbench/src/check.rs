//! Output checks and input checksums.

/// `|got - want| <= rel * max(|want|, |got|, 1)`.
pub fn close(want: f64, got: f64, rel: f64) -> Result<(), String> {
    let scale = want.abs().max(got.abs()).max(1.0);
    if (got - want).abs() <= rel * scale {
        Ok(())
    } else {
        Err(format!("got {got}, want {want} (relative tolerance {rel})"))
    }
}

/// [`close`] element-wise, with equal lengths.
pub fn close_slices(want: &[f64], got: &[f64], rel: f64) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!("{} values, want {}", got.len(), want.len()));
    }
    for (i, (&w, &g)) in want.iter().zip(got).enumerate() {
        close(w, g, rel).map_err(|e| format!("element {i}: {e}"))?;
    }
    Ok(())
}

/// An order-dependent 64-bit checksum (FNV-1a over 64-bit words).
#[derive(Debug, Clone, Copy)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum::new()
    }
}

impl Checksum {
    /// The empty checksum.
    pub fn new() -> Checksum {
        Checksum(0xcbf2_9ce4_8422_2325)
    }

    /// Fold in one word.
    pub fn u64(self, x: u64) -> Checksum {
        Checksum((self.0 ^ x).wrapping_mul(0x0100_0000_01b3))
    }

    /// Fold in a float's bits.
    pub fn f64(self, x: f64) -> Checksum {
        self.u64(x.to_bits())
    }

    /// Fold in bytes, eight at a time.
    pub fn bytes(self, xs: &[u8]) -> Checksum {
        let mut c = self.u64(xs.len() as u64);
        for chunk in xs.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            c = c.u64(u64::from_le_bytes(w));
        }
        c
    }

    /// Fold in `u32`s.
    pub fn u32s(self, xs: &[u32]) -> Checksum {
        xs.iter()
            .fold(self.u64(xs.len() as u64), |c, &x| c.u64(u64::from(x)))
    }

    /// Fold in floats.
    pub fn f64s(self, xs: &[f64]) -> Checksum {
        xs.iter().fold(self.u64(xs.len() as u64), |c, &x| c.f64(x))
    }

    /// The checksum value.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Checksum of a word slice.
    pub fn of_u64s(xs: &[u64]) -> u64 {
        xs.iter()
            .fold(Checksum::new().u64(xs.len() as u64), |c, &x| c.u64(x))
            .get()
    }

    /// Checksum of a float-pair slice.
    pub fn of_pairs(xs: &[(f64, f64)]) -> u64 {
        xs.iter()
            .fold(Checksum::new().u64(xs.len() as u64), |c, &(a, b)| {
                c.f64(a).f64(b)
            })
            .get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_is_relative_with_unit_floor() {
        assert!(close(1e6, 1e6 + 1e-4, 1e-9).is_ok());
        assert!(close(1e6, 1e6 + 1e-2, 1e-9).is_err());
        assert!(close(0.0, 1e-10, 1e-9).is_ok());
        assert!(close_slices(&[1.0], &[1.0, 2.0], 1e-9).is_err());
    }

    #[test]
    fn checksums_see_order_and_length() {
        assert_ne!(Checksum::of_u64s(&[1, 2]), Checksum::of_u64s(&[2, 1]));
        assert_ne!(
            Checksum::new().bytes(&[0]).get(),
            Checksum::new().bytes(&[0, 0]).get()
        );
    }
}
