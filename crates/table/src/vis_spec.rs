//! Visualization specifications — the "visualization configuration" half of
//! a Plotly record (paper Sec. VII-A): which columns are plotted and with
//! what aggregation.

use crate::aggregate::AggOp;
use crate::table::Table;

/// How a line chart is produced from a table.
#[derive(Clone, Debug, PartialEq)]
pub struct VisSpec {
    /// Column used for the x axis; `None` means an auto-generated index
    /// `1, 2, 3, ...` (paper Sec. II).
    pub x_column: Option<usize>,
    /// Columns plotted as lines (one line per column).
    pub y_columns: Vec<usize>,
    /// Optional aggregation `(operator, window)` applied to each y column.
    pub agg: Option<(AggOp, usize)>,
}

impl VisSpec {
    /// Plain multi-line spec over the given y columns with an index x axis.
    pub fn plain(y_columns: Vec<usize>) -> Self {
        VisSpec {
            x_column: None,
            y_columns,
            agg: None,
        }
    }

    /// Aggregated spec.
    pub fn aggregated(y_columns: Vec<usize>, op: AggOp, window: usize) -> Self {
        VisSpec {
            x_column: None,
            y_columns,
            agg: Some((op, window)),
        }
    }

    /// Number of lines this spec draws.
    pub fn num_lines(&self) -> usize {
        self.y_columns.len()
    }

    /// True when the spec applies a real aggregation (operator other than
    /// identity and a window of at least 2).
    pub fn is_aggregated(&self) -> bool {
        matches!(self.agg, Some((op, w)) if op != AggOp::Identity && w >= 2)
    }
}

/// One repository entry: the candidate table and the visualization spec it
/// shipped with (Opt-LN uses the spec; everything else only the table).
#[derive(Clone, Debug)]
pub struct RepoEntry {
    pub table: Table,
    pub spec: VisSpec,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let p = VisSpec::plain(vec![1, 2, 3]);
        assert_eq!(p.num_lines(), 3);
        assert!(!p.is_aggregated());

        let a = VisSpec::aggregated(vec![0], AggOp::Avg, 10);
        assert!(a.is_aggregated());
    }

    #[test]
    fn degenerate_aggregations_not_flagged() {
        let w1 = VisSpec::aggregated(vec![0], AggOp::Avg, 1);
        assert!(!w1.is_aggregated());
        let ident = VisSpec::aggregated(vec![0], AggOp::Identity, 50);
        assert!(!ident.is_aggregated());
    }
}
