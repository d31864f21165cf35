//! A flat matrix of perturbation masks.
//!
//! Every perturbation explainer draws `n` binary masks over a record's `d`
//! interpretable features, scores each mask through the model, and fits a
//! surrogate over all of them. [`Masks`] holds the whole neighborhood in
//! one row-major `n × d` `bool` buffer — one allocation per explanation
//! rather than one per mask — and hands rows out as slices. The row count
//! is stored explicitly, so a record with no features (`d = 0`) still has
//! its `n` empty masks.

/// `n` binary masks of one width, stored row-major in one buffer.
///
/// Bit `j` of a row keeps (`true`) or perturbs (`false`) interpretable
/// feature `j`; row 0 is conventionally the unperturbed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Masks {
    rows: usize,
    width: usize,
    bits: Vec<bool>,
}

impl Masks {
    /// `rows` masks of width `width` with every bit set (nothing perturbed).
    pub fn all_true(rows: usize, width: usize) -> Masks {
        Masks {
            rows,
            width,
            bits: vec![true; rows * width],
        }
    }

    /// Number of masks.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether there are no masks.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Bits per mask: the number of interpretable features.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mask `r`.
    ///
    /// # Panics
    /// Panics if `r >= self.len()`.
    pub fn row(&self, r: usize) -> &[bool] {
        assert!(r < self.rows, "mask index out of bounds");
        &self.bits[r * self.width..(r + 1) * self.width]
    }

    /// Mask `r`, mutably.
    ///
    /// # Panics
    /// Panics if `r >= self.len()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [bool] {
        assert!(r < self.rows, "mask index out of bounds");
        &mut self.bits[r * self.width..(r + 1) * self.width]
    }

    /// The masks in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[bool]> + '_ {
        (0..self.rows).map(move |r| &self.bits[r * self.width..(r + 1) * self.width])
    }

    /// The whole row-major buffer.
    pub fn as_slice(&self) -> &[bool] {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_true_has_the_requested_shape() {
        let m = Masks::all_true(3, 4);
        assert_eq!((m.len(), m.width()), (3, 4));
        assert!(m.iter().all(|row| row == [true; 4]));
        assert_eq!(m.as_slice().len(), 12);
    }

    #[test]
    fn zero_width_keeps_its_row_count() {
        let m = Masks::all_true(5, 0);
        assert_eq!(m.len(), 5);
        assert!(!m.is_empty());
        assert_eq!(m.iter().count(), 5);
        assert!(m.iter().all(<[bool]>::is_empty));
    }

    #[test]
    fn row_mut_writes_one_row() {
        let mut m = Masks::all_true(2, 3);
        m.row_mut(1)[2] = false;
        assert_eq!(m.as_slice(), [true, true, true, true, true, false]);
    }

    #[test]
    #[should_panic(expected = "mask index out of bounds")]
    fn row_past_the_end_panics_even_at_zero_width() {
        Masks::all_true(2, 0).row(2);
    }
}
