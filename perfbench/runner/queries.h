// The paper's OpenAQ queries as SQL text (table name `openaq`), plus small
// helpers the workloads share for parsing and bitwise result comparison.
#ifndef PERFBENCH_RUNNER_QUERIES_H_
#define PERFBENCH_RUNNER_QUERIES_H_

#include <string>
#include <vector>

#include "src/exec/query.h"
#include "src/exec/query_result.h"
#include "src/server/protocol.h"

namespace perfbench {

/// AQ3: AVG(value) by (country, parameter, unit), hour BETWEEN 0 AND hi.
std::string Aq3Sql(int hour_hi);
/// AQ5: AVG(value) by (country, parameter, unit) WHERE latitude > 0.
extern const char kAq5Sql[];
/// AQ2: SUM(value), COUNT(*) by (country, parameter, unit).
extern const char kAq2Sql[];
/// AQ4: AVG(value) by (country, month, year) WHERE parameter = 'co'.
extern const char kAq4Sql[];
/// AQ6: COUNT_IF(value > 0.5) by (parameter, unit) WHERE country = 'C05'.
extern const char kAq6Sql[];
/// AQ1 for one year: AVG(value), COUNT_IF(value > 0.04) by country
/// WHERE parameter = 'bc' AND year = 2018.
extern const char kAq1Y2018Sql[];

/// Parses `sql`; aborts the run on a parse error (the texts are fixed).
cvopt::QuerySpec MustParse(const std::string& sql);

/// Bitwise equality of two results: group order, labels, key codes and
/// every value's bit pattern.
bool SameResult(const cvopt::QueryResult& a, const cvopt::QueryResult& b);
bool SameWire(const cvopt::WireResult& a, const cvopt::WireResult& b);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_QUERIES_H_
