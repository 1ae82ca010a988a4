#include "harness/sweep.hh"

#include "common/table.hh"

namespace gpumech
{

void
printSweep(std::ostream &os, const SweepResult &result)
{
    std::vector<std::string> header{"model"};
    header.insert(header.end(), result.labels.begin(),
                  result.labels.end());
    Table t(header);
    for (ModelKind kind : allModels()) {
        std::vector<std::string> row{toString(kind)};
        for (double err : result.averages.at(kind))
            row.push_back(fmtPercent(err));
        t.addRow(std::move(row));
    }
    t.print(os);
}

} // namespace gpumech
