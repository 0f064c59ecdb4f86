#pragma once

#include <iostream>
#include <ostream>
#include <string>
#include <thread>

#include "metrics/regression.hpp"
#include "metrics/table.hpp"

namespace sf::bench {

/// Prints a figure banner so bench output reads like the paper's
/// evaluation section.
inline void banner(const std::string& title, const std::string& paper_note) {
  std::cout << "\n==========================================================\n"
            << title << '\n'
            << "paper: " << paper_note << '\n'
            << "==========================================================\n";
}

inline void print_fit(const std::string& label,
                      const sf::metrics::LinearFit& fit) {
  std::cout << label << ": slope=" << fit.slope
            << " s/task, intercept=" << fit.intercept << " s, R^2=" << fit.r2
            << '\n';
}

/// Opens a bench's JSON record (the SF_SCALE_JSON / SF_CHAOS_JSON side
/// channels): what it holds and the machine and sweep-pool width it was
/// measured on. The caller writes its sections and closes the object.
inline void json_header(std::ostream& out, const std::string& description,
                        int sweep_threads) {
  out << "{\n  \"description\": \"" << description << "\",\n"
      << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"sweep_threads\": " << sweep_threads << ",\n";
}

}  // namespace sf::bench
