#include "perfbench/runner/queries.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/sql/parser.h"

namespace perfbench {

std::string Aq3Sql(int hour_hi) {
  return "SELECT country, parameter, unit, AVG(value) FROM openaq "
         "WHERE hour BETWEEN 0 AND " +
         std::to_string(hour_hi) + " GROUP BY country, parameter, unit";
}

const char kAq5Sql[] =
    "SELECT country, parameter, unit, AVG(value) FROM openaq "
    "WHERE latitude > 0 GROUP BY country, parameter, unit";
const char kAq2Sql[] =
    "SELECT country, parameter, unit, SUM(value), COUNT(*) FROM openaq "
    "GROUP BY country, parameter, unit";
const char kAq4Sql[] =
    "SELECT country, month, year, AVG(value) FROM openaq "
    "WHERE parameter = 'co' GROUP BY country, month, year";
const char kAq6Sql[] =
    "SELECT parameter, unit, COUNT_IF(value > 0.5) FROM openaq "
    "WHERE country = 'C05' GROUP BY parameter, unit";
const char kAq1Y2018Sql[] =
    "SELECT country, AVG(value), COUNT_IF(value > 0.04) FROM openaq "
    "WHERE parameter = 'bc' AND year = 2018 GROUP BY country";

cvopt::QuerySpec MustParse(const std::string& sql) {
  auto parsed = cvopt::ParseSql(sql);
  if (!parsed.ok()) {
    std::fprintf(stderr, "cannot parse '%s': %s\n", sql.c_str(),
                 parsed.status().ToString().c_str());
    std::exit(2);
  }
  return parsed->query;
}

bool SameResult(const cvopt::QueryResult& a, const cvopt::QueryResult& b) {
  if (a.num_groups() != b.num_groups() ||
      a.num_aggregates() != b.num_aggregates() ||
      a.agg_labels() != b.agg_labels()) {
    return false;
  }
  for (size_t i = 0; i < a.num_groups(); ++i) {
    if (a.label(i) != b.label(i) || a.key_arity(i) != b.key_arity(i) ||
        std::memcmp(a.key_codes(i), b.key_codes(i),
                    a.key_arity(i) * sizeof(int64_t)) != 0) {
      return false;
    }
    for (size_t j = 0; j < a.num_aggregates(); ++j) {
      const double x = a.value(i, j);
      const double y = b.value(i, j);
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

bool SameWire(const cvopt::WireResult& a, const cvopt::WireResult& b) {
  return a.agg_labels == b.agg_labels && a.group_labels == b.group_labels &&
         a.key_codes == b.key_codes && a.value_bits == b.value_bits;
}

}  // namespace perfbench
