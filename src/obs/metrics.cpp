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
  if (kind == Kind::kHistogram) m->histogram = std::make_unique<Histogram>();
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

Histogram& MetricsRegistry::histogram(std::string_view name, std::string_view help,
                                      std::string_view labels) {
  sync::LockGuard lock(mu_);
  return *find_or_create(Kind::kHistogram, name, help, labels).histogram;
}

namespace {

std::string format_double(double v) {
  if (std::isnan(v)) return "NaN";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// "name" or "name{labels}".
std::string series(const std::string& name, const std::string& labels,
                   const std::string& extra = "") {
  std::string body = labels;
  if (!extra.empty()) {
    if (!body.empty()) body += ',';
    body += extra;
  }
  if (body.empty()) return name;
  return name + "{" + body + "}";
}

/// Quantile of a possibly-empty summary as JSON (null when empty).
Json quantile_json(const sim::Summary& s, double q) {
  return s.count() == 0 ? Json() : Json(s.percentile(q));
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
      switch (m->kind) {
        case Kind::kCounter: out += "# TYPE " + m->name + " counter\n"; break;
        case Kind::kGauge: out += "# TYPE " + m->name + " gauge\n"; break;
        case Kind::kHistogram: out += "# TYPE " + m->name + " summary\n"; break;
      }
    }
    switch (m->kind) {
      case Kind::kCounter:
        out += series(m->name, m->labels) + " " + std::to_string(m->counter.value()) + "\n";
        break;
      case Kind::kGauge:
        out += series(m->name, m->labels) + " " + format_double(m->gauge.value()) + "\n";
        break;
      case Kind::kHistogram: {
        const sim::Summary& s = m->histogram->summary();
        for (const double q : {0.5, 0.9, 0.99}) {
          const std::string qs = format_double(q);
          const double v = s.count() == 0 ? std::nan("") : s.percentile(q);
          out += series(m->name, m->labels, "quantile=\"" + qs + "\"") + " " +
                 format_double(v) + "\n";
        }
        out += series(m->name + "_sum", m->labels) + " " + format_double(s.total()) + "\n";
        out += series(m->name + "_count", m->labels) + " " + std::to_string(s.count()) + "\n";
        break;
      }
    }
  }
  return out;
}

Json MetricsRegistry::to_json() const {
  sync::LockGuard lock(mu_);
  Json counters = Json::object();
  Json gauges = Json::object();
  Json histograms = Json::object();
  for (const auto& m : metrics_) {
    const std::string key = series(m->name, m->labels);
    switch (m->kind) {
      case Kind::kCounter: counters.set(key, m->counter.value()); break;
      case Kind::kGauge: gauges.set(key, m->gauge.value()); break;
      case Kind::kHistogram: {
        const sim::Summary& s = m->histogram->summary();
        Json h = Json::object();
        h.set("count", s.count());
        h.set("sum", s.total());
        h.set("mean", s.count() == 0 ? Json() : Json(s.mean()));
        h.set("p50", quantile_json(s, 0.5));
        h.set("p90", quantile_json(s, 0.9));
        h.set("p99", quantile_json(s, 0.99));
        h.set("max", s.count() == 0 ? Json() : Json(s.max()));
        histograms.set(key, std::move(h));
        break;
      }
    }
  }
  Json doc = Json::object();
  doc.set("counters", std::move(counters));
  doc.set("gauges", std::move(gauges));
  doc.set("histograms", std::move(histograms));
  return doc;
}

void MetricsRegistry::save(const std::string& path) const {
  const bool prometheus = path.ends_with(".prom") || path.ends_with(".txt");
  write_file("MetricsRegistry::save", path,
             prometheus ? to_prometheus() : to_json().dump(2) + "\n");
}

}  // namespace perseas::obs
