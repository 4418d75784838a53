//! One module per paper table/figure, plus the ablations and the
//! closed-loop control study.

pub mod ablations;
pub mod control;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod load_sweep;
pub mod tables;
