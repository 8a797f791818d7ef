//! The homogeneous path-explosion model (paper §5.1) from three angles.
//!
//! Compares the stochastic jump process, the truncated ODE (Kurtz limit) and
//! the closed-form mean `E[S(t)] = E[S(0)]·e^{λt}`, then prints the
//! two-class (in/out) model's predictions for the four pair types (§5.2).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example analytic_model
//! ```

use psn::experiments::model::run_model_validation;
use psn::report::TextRenderer;
use psn_analytic::{mean_paths, variance_paths};

fn main() {
    println!(
        "validating the homogeneous path-count model (this runs a stochastic simulation)...\n"
    );
    let validation = run_model_validation(40);
    println!("{}", TextRenderer.render_section(&validation.section()));

    // The closed forms on their own: how fast does the expected path count
    // grow for conference-like contact rates?
    println!("closed-form growth for a 98-node population:");
    println!("lambda_per_s,t_s,mean_paths_per_node,std_dev");
    for &lambda in &[0.005_f64, 0.01, 0.03] {
        for &t in &[100.0_f64, 300.0, 600.0] {
            let mean = mean_paths(1.0 / 98.0, lambda, t);
            let var = variance_paths(1.0 / 98.0, 0.0, lambda, t);
            println!("{lambda},{t:.0},{mean:.4},{:.4}", var.sqrt());
        }
    }
    println!(
        "\nthe take-away: path counts grow like e^(lambda*t), so a high-rate core of the\n\
         population explodes within minutes while low-rate nodes lag — exactly the\n\
         structure the trace experiments (Figs. 4-8) show."
    );
}
