//! One module per reproduced table/figure (DESIGN.md §4).
//!
//! Every module exposes `run(&ExpConfig) -> <structured rows>` (assertable
//! from tests) and `print(&ExpConfig)` (human-readable, with the paper's
//! reference numbers alongside).

pub mod ablation;
pub mod chaos;
pub mod durability;
pub mod fig11b;
pub mod fig12;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig6;
pub mod fig8;
pub mod scalability;
pub mod serving;
pub mod slo;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod threads;
