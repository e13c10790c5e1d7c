#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/output.hpp"

namespace perseas::obs {

MetricsRegistry::Metric& MetricsRegistry::find_or_create(Kind kind, std::string_view name,
                                                         std::string_view help,
                                                         std::string_view labels) {
  for (auto& m : metrics_) {
    if (m->name == name && m->labels == labels) {
      if (m->kind != kind) {
        throw std::logic_error("MetricsRegistry: metric '" + m->name +
                               "' re-registered with a different type");
      }
      return *m;
    }
  }
  auto m = std::make_unique<Metric>();
  m->kind = kind;
  m->name = name;
  m->labels = labels;
  m->help = help;
  metrics_.push_back(std::move(m));
  return *metrics_.back();
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  std::string_view labels) {
  sync::LockGuard lock(mu_);
  return find_or_create(Kind::kCounter, name, help, labels).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              std::string_view labels) {
  sync::LockGuard lock(mu_);
  return find_or_create(Kind::kGauge, name, help, labels).gauge;
}

namespace {

std::string format_double(double v) {
  if (std::isnan(v)) return "NaN";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// "name" or "name{labels}".
std::string series(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  return name + "{" + labels + "}";
}

}  // namespace

std::string MetricsRegistry::to_prometheus() const {
  sync::LockGuard lock(mu_);
  std::string out;
  std::string last_family;
  for (const auto& m : metrics_) {
    if (m->name != last_family) {
      last_family = m->name;
      if (!m->help.empty()) out += "# HELP " + m->name + " " + m->help + "\n";
      out += "# TYPE " + m->name + (m->kind == Kind::kCounter ? " counter\n" : " gauge\n");
    }
    out += series(m->name, m->labels) + " " +
           (m->kind == Kind::kCounter ? std::to_string(m->counter.value())
                                      : format_double(m->gauge.value())) +
           "\n";
  }
  return out;
}

Json MetricsRegistry::to_json() const {
  sync::LockGuard lock(mu_);
  Json counters = Json::object();
  Json gauges = Json::object();
  for (const auto& m : metrics_) {
    const std::string key = series(m->name, m->labels);
    if (m->kind == Kind::kCounter) {
      counters.set(key, m->counter.value());
    } else {
      gauges.set(key, m->gauge.value());
    }
  }
  Json doc = Json::object();
  doc.set("counters", std::move(counters));
  doc.set("gauges", std::move(gauges));
  return doc;
}

void MetricsRegistry::save(const std::string& path) const {
  const bool prometheus = path.ends_with(".prom") || path.ends_with(".txt");
  write_file("MetricsRegistry::save", path,
             prometheus ? to_prometheus() : to_json().dump(2) + "\n");
}

}  // namespace perseas::obs
